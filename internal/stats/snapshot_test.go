package stats

import (
	"testing"

	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// TestSeriesSnapshotRoundTrip: a series survives save → restore → save
// byte-identically.
func TestSeriesSnapshotRoundTrip(t *testing.T) {
	var sr Series
	for i := 0; i < 50; i++ {
		sr.Add(simtime.Time(i*1000), float64(i)/3)
	}
	w := codec.NewWriter()
	sr.Sync(w)
	img := w.Finish()
	r, err := codec.NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var got Series
	got.Sync(r)
	if r.Err() != nil {
		t.Fatalf("Sync: %v", r.Err())
	}
	w2 := codec.NewWriter()
	got.Sync(w2)
	if string(w2.Finish()) != string(img) {
		t.Fatal("save∘restore∘save changed bytes")
	}
}

// TestSeriesRejectsOversizedLength: a short CRC-valid stream claiming 2^40
// samples is a decode error, not an allocation of that size.
func TestSeriesRejectsOversizedLength(t *testing.T) {
	w := codec.NewWriter()
	w.Tag("series")
	n := 1 << 40
	w.Len(&n, 1)
	img := w.Finish()
	if len(img) > 32 {
		t.Fatalf("crafted stream is %d bytes, want a short one", len(img))
	}
	r, err := codec.NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var sr Series
	sr.Sync(r)
	if r.Err() == nil {
		t.Fatal("a 2^40-sample series length was accepted")
	}
}
