package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestFoldStack(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// Standard-library and runtime frames are charged to their repo caller.
		{[]string{"runtime.mallocgc", "runtime.makeslice", modPath + "/internal/rl.(*Agent).TrainStep", modPath + "/internal/acc.(*Tuner).tick"}, "rl"},
		{[]string{"runtime.mapaccess2_fast64", modPath + "/internal/netsim.(*Switch).Receive", modPath + "/internal/eventq.(*Queue).RunUntil"}, "netsim"},
		{[]string{"sort.insertionSort", "sort.Sort", modPath + "/internal/eventq.(*Queue).sortDay.func1"}, "eventq"},
		// A nested package folds into its top-level layer.
		{[]string{modPath + "/internal/snap/codec.(*Writer).U64", modPath + "/internal/snap.(*World).Snapshot"}, "snap"},
		// Repo code outside internal/ is "other".
		{[]string{"fmt.Sprintf", modPath + "/perfbench.run", "main.main"}, "other"},
		// No repo frame at all: runtime.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := foldStack(tc.stack); got != tc.want {
			t.Errorf("foldStack(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// protoBuf is a minimal protobuf writer for synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestParseSyntheticProfile folds a hand-built profile.proto: an inlined
// location must expand innermost first, and both packed and unpacked
// sample fields must decode.
func TestParseSyntheticProfile(t *testing.T) {
	strs := []string{"", "runtime.memmove",
		modPath + "/internal/netsim.(*Port).transmit",
		modPath + "/internal/eventq.(*Queue).RunUntil",
		"runtime.gcBgMarkWorker"}
	var prof protoBuf
	// Functions 1..4 name strings 1..4.
	for id := uint64(1); id <= 4; id++ {
		var f protoBuf
		f.varint(1, id)
		f.varint(2, id)
		prof.bytes(5, f.b)
	}
	line := func(fn uint64) []byte { var l protoBuf; l.varint(1, fn); return l.b }
	// Location 1: memmove inlined into transmit (innermost line first).
	var loc1 protoBuf
	loc1.varint(1, 1)
	loc1.bytes(4, line(1))
	loc1.bytes(4, line(2))
	prof.bytes(4, loc1.b)
	for id, fn := range map[uint64]uint64{2: 3, 3: 4} {
		var l protoBuf
		l.varint(1, id)
		l.bytes(4, line(fn))
		prof.bytes(4, l.b)
	}
	// Sample values are (count, nanoseconds).
	var s1 protoBuf // memmove<-transmit<-RunUntil: 30ms, packed fields
	s1.bytes(1, packed(1, 2))
	s1.bytes(2, packed(3, 30e6))
	prof.bytes(2, s1.b)
	var s2 protoBuf // RunUntil alone: 60ms, unpacked fields
	s2.varint(1, 2)
	s2.varint(2, 6)
	s2.varint(2, 60e6)
	prof.bytes(2, s2.b)
	var s3 protoBuf // GC worker: 10ms
	s3.bytes(1, packed(3))
	s3.bytes(2, packed(1, 10e6))
	prof.bytes(2, s3.b)
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	samples, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 || strings.Join(samples[0].stack, ",") != strings.Join(strs[1:4], ",") {
		t.Fatalf("samples = %+v", samples)
	}
	s := foldSamples(samples)
	for layer, want := range map[string]float64{"netsim": 0.3, "eventq": 0.6, "runtime": 0.1} {
		if got := s.frac(layer); math.Abs(got-want) > 1e-12 {
			t.Errorf("frac(%s) = %g, want %g", layer, got, want)
		}
	}
	m := map[string]float64{}
	setShares(m, s)
	if math.Abs(m["other_frac"]) > 1e-12 || m["netsim.map_frac"] != 0 {
		t.Errorf("other_frac = %g, netsim.map_frac = %g", m["other_frac"], m["netsim.map_frac"])
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{2<<3 | 2, 10, 1}) // a sample claiming 10 bytes, holding 1
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every metric name against the allowed name
// pattern and the program's metric lists against BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit || string(got[i].better) != want[i].Better {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, bench.EndToEnd)
	same("per_layer", perLayer, bench.PerLayer)
}

func TestGateTamperedReference(t *testing.T) {
	rf := refFile{Refs: map[string]map[string]map[string]string{
		"pretrain": {"7": {"model": "00000000000000aa", "train_steps": "100"}},
	}}
	outs := []outcome{{name: "model", digest: "00000000000000aa"}, {name: "train_steps", digest: "100"}}

	g := newGateFrom(rf, "pretrain", 7, fingerprint{}, io.Discard)
	g.check(outs)
	if g.attempted != 2 || g.failed != 0 {
		t.Fatalf("matching outcomes: attempted %d failed %d", g.attempted, g.failed)
	}
	rf.Refs["pretrain"]["7"]["model"] = "00000000000000ab"
	g = newGateFrom(rf, "pretrain", 7, fingerprint{}, io.Discard)
	g.check(outs)
	if g.failed != 1 {
		t.Fatalf("tampered reference: failed %d, want 1", g.failed)
	}
	// Without a recorded reference the first digest is the reference.
	g = newGateFrom(rf, "pretrain", 8, fingerprint{}, io.Discard)
	g.check(outs)
	g.check([]outcome{{name: "model", digest: "00000000000000ff"}})
	if g.attempted != 3 || g.failed != 1 {
		t.Fatalf("self-consistency: attempted %d failed %d", g.attempted, g.failed)
	}
}

// TestRecordedRefsFailWhenTampered runs the pretrain workload end to end
// against the embedded references with one digest flipped: the result
// line must report the failure.
func TestRecordedRefsFailWhenTampered(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pretrain workload")
	}
	var rf refFile
	if err := json.Unmarshal(refsJSON, &rf); err != nil {
		t.Fatal(err)
	}
	ref := rf.Refs["pretrain"]["1"]
	if ref["model"] == "" {
		t.Fatal("refs.json has no pretrain seed 1 model digest")
	}
	ref["model"] = strings.Repeat("0", 16)
	tampered, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	saved := refsJSON
	refsJSON = tampered
	defer func() { refsJSON = saved }()

	var out bytes.Buffer
	if err := run([]string{"--workload", "pretrain", "--seed", "1", "--seconds", "0.001"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != minIters || res.Attempted == 0 {
		t.Fatalf("tampered model digest: correct=%v failed=%d attempted=%d, want %d failures",
			res.Correct, res.Failed, res.Attempted, minIters)
	}
}
