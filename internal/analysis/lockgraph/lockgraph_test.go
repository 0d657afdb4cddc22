package lockgraph_test

import (
	"testing"

	"vkgraph/internal/analysis/analysistest"
	"vkgraph/internal/analysis/lockgraph"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", lockgraph.Analyzer, "cyclic", "lockuser", "critical")
}
