package rtree

import (
	"bytes"
	"errors"
	"testing"

	"vkgraph/internal/faultio"
	"vkgraph/internal/snapfmt"
)

// savedTree returns a warmed tree snapshot and the point set to load against.
func savedTree(t *testing.T) (*PointSet, []byte) {
	t.Helper()
	ps := clusteredPointSet(800, 3, 4, 81)
	tr := NewCracking(ps, DefaultOptions())
	tr.Crack(BallRect([]float64{5, 5, 5}, 2))
	tr.Crack(BallRect([]float64{2, 8, 3}, 1.5))
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return ps, buf.Bytes()
}

// Every flavor of damaged stream must come back as a typed error — never a
// gob panic, never a silently wrong tree.
func TestLoadDamagedSnapshots(t *testing.T) {
	ps, snap := savedTree(t)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, snapfmt.ErrCorrupt},
		{"short header", snap[:7], snapfmt.ErrCorrupt},
		{"bad magic", append([]byte("NOTATREE"), snap[8:]...), snapfmt.ErrCorrupt},
		{"truncated mid-section", snap[:len(snap)/2], snapfmt.ErrCorrupt},
		{"truncated tail", snap[:len(snap)-3], snapfmt.ErrCorrupt},
	}
	for _, c := range cases {
		if _, err := Load(bytes.NewReader(c.data), ps); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want errors.Is %v", c.name, err, c.want)
		}
	}

	// Past and future format versions: typed as ErrVersion, not
	// ErrCorrupt. Version 1 (the recursive gob format) is no longer read.
	for _, v := range []uint16{1, treeVersion + 1} {
		var vbuf bytes.Buffer
		if err := snapfmt.WriteHeader(&vbuf, treeMagic, v, 1); err != nil {
			t.Fatal(err)
		}
		vbuf.Write(snap[snapfmt.MagicLen+4:])
		if _, err := Load(&vbuf, ps); !errors.Is(err, snapfmt.ErrVersion) {
			t.Errorf("version %d: got %v, want errors.Is ErrVersion", v, err)
		}
	}

	// Bit rot anywhere in the frame or payload fails the checksum (or the
	// length sanity check) before a byte reaches the gob decoder.
	for _, off := range []int{13, 20, len(snap) / 2, len(snap) - 1} {
		bad := append([]byte(nil), snap...)
		bad[off] ^= 0x40
		if _, err := Load(bytes.NewReader(bad), ps); !errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("bit flip at %d: got %v, want errors.Is ErrCorrupt", off, err)
		}
	}
}

// Short and failing readers simulate a torn copy or a dying disk mid-read.
func TestLoadFaultyReaders(t *testing.T) {
	ps, snap := savedTree(t)
	if _, err := Load(faultio.ShortReader(bytes.NewReader(snap), len(snap)-9), ps); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Errorf("short read: got %v, want errors.Is ErrCorrupt", err)
	}
	fr := &faultio.FailingReader{R: bytes.NewReader(snap), N: 40, Err: faultio.ErrInjected}
	if _, err := Load(fr, ps); err == nil {
		t.Error("failing reader: Load succeeded on a dying stream")
	}
	cr := &faultio.CorruptingReader{R: bytes.NewReader(snap), Offset: int64(len(snap) / 3), Mask: 0x08}
	if _, err := Load(cr, ps); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Errorf("corrupting reader: got %v, want errors.Is ErrCorrupt", err)
	}
}
