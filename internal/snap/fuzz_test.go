package snap

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
)

// FuzzRestore feeds mutated snapshot images to Restore, which must return
// a world or an error and never panic. Seeds are real images of the test
// scenario at packet and hybrid fidelity with their CRC trailer removed;
// the body re-appends a valid trailer, so mutations get past the checksum
// and reach the decoders. Inputs whose embedded scenario no longer
// matches a seed's are skipped after Peek: Build's cost grows with the
// scenario (a mutated flow count can ask for millions of flows), and the
// point here is the decoding that follows Build.
func FuzzRestore(f *testing.F) {
	var scenarios []Scenario
	for _, fidelity := range []string{"packet", "hybrid"} {
		sc := testScenario(2, fidelity)
		w, err := Build(sc)
		if err != nil {
			f.Fatalf("Build: %v", err)
		}
		w.Run(sc.Horizon / 2)
		img := w.Snapshot()
		scenarios = append(scenarios, sc)
		f.Add(img[:len(img)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(slices.Clone(body), crc32.ChecksumIEEE(body))
		sc, err := Peek(data)
		if err != nil || !slices.Contains(scenarios, sc) {
			return
		}
		w, err := Restore(data)
		if err == nil && w == nil {
			t.Fatal("Restore returned neither a world nor an error")
		}
	})
}
