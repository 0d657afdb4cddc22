package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestTraceNilSafe: instrumented code calls trace methods unconditionally on
// a possibly-nil trace; none of them may panic.
func TestTraceNilSafe(t *testing.T) {
	var tr *QueryTrace
	tr.Step(StageSearch)
	tr.NoteCrack(time.Millisecond, time.Millisecond, 1, 2)
	tr.Finish()
	if got := tr.String(); got != "<no trace>" {
		t.Fatalf("String = %q", got)
	}
}

func TestTraceSpansSumToWall(t *testing.T) {
	tr := StartTrace()
	time.Sleep(2 * time.Millisecond)
	tr.Step(StageValidate)
	time.Sleep(3 * time.Millisecond)
	tr.Step(StageSearch)
	tr.Finish()

	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Stage != StageValidate || tr.Spans[1].Stage != StageSearch {
		t.Fatalf("stages = %v, %v", tr.Spans[0].Stage, tr.Spans[1].Stage)
	}
	var sum time.Duration
	for _, s := range tr.Spans {
		if s.Dur <= 0 {
			t.Fatalf("span %s has non-positive duration %v", s.Stage, s.Dur)
		}
		sum += s.Dur
	}
	if tr.Wall < sum {
		t.Fatalf("wall %v < span sum %v", tr.Wall, sum)
	}
	// Stages are contiguous: the only unaccounted time is between the last
	// Step and Finish, which here is a few statements.
	if slack := tr.Wall - sum; slack > 50*time.Millisecond {
		t.Fatalf("wall %v exceeds span sum %v by %v", tr.Wall, sum, slack)
	}
	// Spans are contiguous: each starts where the previous ended.
	if tr.Spans[0].Start != 0 {
		t.Fatalf("first span starts at %v", tr.Spans[0].Start)
	}
	if got, want := tr.Spans[1].Start, tr.Spans[0].Start+tr.Spans[0].Dur; got != want {
		t.Fatalf("second span starts at %v, want %v", got, want)
	}
}

func TestTraceString(t *testing.T) {
	tr := StartTrace()
	tr.Step(StageCache)
	tr.Step(StageSearch)
	tr.Finish()
	s := tr.String()
	if !strings.Contains(s, StageCache) || !strings.Contains(s, StageSearch) {
		t.Fatalf("String = %q, missing stage names", s)
	}
}

// TestTraceRecordsRenderCrack: /traces/<id> explains a crack from the
// query trace alone — the crack stage carries its write-lock wait and hold
// time and its splits and nodes, in the text render and as a JSON object.
func TestTraceRecordsRenderCrack(t *testing.T) {
	tr := StartTrace()
	tr.Step(StageSearch)
	tr.NoteCrack(40*time.Microsecond, 90*time.Microsecond, 3, 6)
	tr.Step(StageCrack)
	tr.Finish()
	recs := []TraceRecord{{ID: tr.TraceID(), Span: tr.SpanID(), Kind: "topk", Status: "ok", Trace: tr}}

	var sb strings.Builder
	RenderTraceText(&sb, tr.TraceID(), recs)
	if out := sb.String(); !strings.Contains(out, "lock-wait=40µs held=90µs splits=3 nodes=6") {
		t.Errorf("text render lacks the crack fields:\n%s", out)
	}

	w := httptest.NewRecorder()
	WriteTraceRecords(w, tr.TraceID(), recs, "json")
	out := w.Body.String()
	for _, want := range []string{`"crack": {`, `"lock_wait_ms": 0.04`, `"held_ms": 0.09`, `"splits": 3`, `"nodes": 6`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON render lacks %s:\n%s", want, out)
		}
	}
}
