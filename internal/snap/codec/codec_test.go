package codec_test

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/simtime"
	"github.com/accnet/acc/internal/snap/codec"
)

// record holds one field of every kind the codec encodes.
type record struct {
	i     int
	i64   int64
	t     simtime.Time
	u8    uint8
	u32   uint32
	u64   uint64
	rate  simtime.Rate
	f     float64
	b1    bool
	b2    bool
	str   string
	n     int
	fs    []float64
	times []simtime.Time
	m     map[int64]int
}

func (r *record) sync(s *codec.Stream) {
	s.Tag("record")
	codec.Int(s, &r.i)
	codec.Int(s, &r.i64)
	codec.Int(s, &r.t)
	codec.Uint(s, &r.u8)
	codec.Uint(s, &r.u32)
	codec.Uint(s, &r.u64)
	codec.Float(s, &r.rate)
	codec.Float(s, &r.f)
	s.Bool(&r.b1)
	s.Bool(&r.b2)
	s.String(&r.str)
	s.Len(&r.n, 1)
	codec.Floats(s, &r.fs)
	codec.Slice(s, &r.times, 1, codec.Int)
	codec.IntMap(s, &r.m, codec.Int)
}

func encode(r *record) []byte {
	s := codec.NewWriter()
	r.sync(s)
	return s.Finish()
}

// TestRoundTripKinds: every kind decodes to the value it encoded, and
// re-encoding the decoded record reproduces the bytes. The Rate carries a
// fraction, which an integer encoding would drop.
func TestRoundTripKinds(t *testing.T) {
	want := record{
		i: -7, i64: math.MinInt64, t: simtime.Time(123456789),
		u8: 255, u32: math.MaxUint32, u64: math.MaxUint64,
		rate: simtime.Rate(12.5e9 + 0.375), f: -0.1,
		b1: true, str: "snap-world", n: 3,
		fs:    []float64{1.5, math.Inf(-1), 0},
		times: []simtime.Time{0, 10, -3},
		m:     map[int64]int{5: -1, -2: 7, 40: 0},
	}
	img := encode(&want)
	s, err := codec.NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var got record
	got.sync(s)
	if err := s.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.i != want.i || got.i64 != want.i64 || got.t != want.t ||
		got.u8 != want.u8 || got.u32 != want.u32 || got.u64 != want.u64 ||
		got.rate != want.rate || got.f != want.f || got.b1 != want.b1 || got.b2 != want.b2 ||
		got.str != want.str || got.n != want.n ||
		!slices.Equal(got.fs, want.fs) || !slices.Equal(got.times, want.times) || len(got.m) != len(want.m) {
		t.Fatalf("round trip changed the record:\n got  %+v\n want %+v", got, want)
	}
	for k, v := range want.m {
		if got.m[k] != v {
			t.Fatalf("map entry %d: got %d want %d", k, got.m[k], v)
		}
	}
	if again := encode(&got); string(again) != string(img) {
		t.Fatalf("re-encoding the decoded record changed the bytes")
	}
}

// TestMapOrderIsCanonical: maps encode in key order, so equal maps give
// equal bytes however they were built.
func TestMapOrderIsCanonical(t *testing.T) {
	a, b := map[int64]int{}, map[int64]int{}
	for i := int64(0); i < 64; i++ {
		a[i] = int(i)
		b[63-i] = int(63 - i)
	}
	enc := func(m map[int64]int) string {
		s := codec.NewWriter()
		codec.IntMap(s, &m, codec.Int)
		return string(s.Finish())
	}
	if enc(a) != enc(b) {
		t.Fatal("equal maps encoded differently")
	}
}

// reader opens a stream or fails the test.
func reader(t *testing.T, img []byte) *codec.Stream {
	t.Helper()
	s, err := codec.NewReader(img)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return s
}

// withCRC frames body (magic and version included) with a valid trailer.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clone(body), crc32.ChecksumIEEE(body))
}

// TestTruncatedStream: a stream cut short fails the header check, and a
// CRC-valid stream whose body ends mid-record fails decoding with an
// error, leaving the remaining fields untouched.
func TestTruncatedStream(t *testing.T) {
	full := record{i: 1, str: "abc", fs: []float64{1, 2}}
	img := encode(&full)
	if _, err := codec.NewReader(img[:len(img)-6]); err == nil {
		t.Fatal("NewReader accepted a stream with a cut trailer")
	}
	if _, err := codec.NewReader(img[:5]); err == nil {
		t.Fatal("NewReader accepted a 5-byte stream")
	}
	body := img[:len(img)-4]
	cut := withCRC(body[:len(body)-10])
	s := reader(t, cut)
	got := record{b2: true}
	got.sync(s)
	if s.Err() == nil {
		t.Fatal("decoding a truncated body reported no error")
	}
	if got.m != nil {
		t.Fatal("fields after the truncation point were written")
	}
}

// TestOversizedLength: a CRC-valid count far beyond the input fails the
// stream instead of sizing an allocation, for Len and every
// length-prefixed decoder built on it.
func TestOversizedLength(t *testing.T) {
	w := codec.NewWriter()
	huge := 1 << 40
	w.Len(&huge, 1)
	img := w.Finish()

	s := reader(t, img)
	n := 5
	s.Len(&n, 1)
	if s.Err() == nil || n != 0 {
		t.Fatalf("Len accepted %d (err %v)", n, s.Err())
	}
	for name, dec := range map[string]func(*codec.Stream){
		"Floats": func(s *codec.Stream) { var xs []float64; codec.Floats(s, &xs) },
		"Slice":  func(s *codec.Stream) { var xs []int; codec.Slice(s, &xs, 1, codec.Int) },
		"IntMap": func(s *codec.Stream) { var m map[int64]int; codec.IntMap(s, &m, codec.Int) },
		"String": func(s *codec.Stream) { var str string; s.String(&str) },
	} {
		s := reader(t, img)
		dec(s)
		if s.Err() == nil || !strings.Contains(s.Err().Error(), "exceeds") {
			t.Errorf("%s: err = %v, want a length error", name, s.Err())
		}
	}
	// The bound is per element size: 3 bytes remain, so 3 one-byte
	// elements fit but 3 eight-byte floats do not.
	w = codec.NewWriter()
	three := 3
	w.Len(&three, 1)
	for i := 0; i < 3; i++ {
		w.Bool(new(bool))
	}
	img = w.Finish()
	s = reader(t, img)
	s.Len(&n, 1)
	if s.Err() != nil || n != 3 {
		t.Fatalf("Len rejected a count the input can hold: n=%d err=%v", n, s.Err())
	}
	s = reader(t, img)
	s.Len(&n, 8)
	if s.Err() == nil {
		t.Fatal("Len accepted 3 eight-byte elements in 3 bytes")
	}
}

// TestBadBool: a bool byte other than 0 or 1 is an error.
func TestBadBool(t *testing.T) {
	w := codec.NewWriter()
	two := uint8(2)
	codec.Uint(w, &two)
	s := reader(t, w.Finish())
	b := true
	s.Bool(&b)
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "invalid bool") {
		t.Fatalf("err = %v, want invalid bool", s.Err())
	}
	if !b {
		t.Fatal("a failed Bool overwrote its field")
	}
}

// TestTagMismatch: a section tag other than the expected one is a
// located error, and later fields stay untouched.
func TestTagMismatch(t *testing.T) {
	w := codec.NewWriter()
	w.Tag("netsim")
	x := 9
	codec.Int(w, &x)
	s := reader(t, w.Finish())
	s.Tag("eventq")
	y := 1
	codec.Int(s, &y)
	if s.Err() == nil || !strings.Contains(s.Err().Error(), "tag mismatch") {
		t.Fatalf("err = %v, want a tag mismatch", s.Err())
	}
	if y != 1 {
		t.Fatal("a read after the error wrote its field")
	}
}

// TestVersionMismatch: a reader accepts exactly the current version and
// names both versions when it refuses.
func TestVersionMismatch(t *testing.T) {
	for _, v := range []byte{1, byte(codec.Version) + 1} {
		img := withCRC(append([]byte(codec.Magic), v))
		_, err := codec.NewReader(img)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version %d: err = %v, want a version error", v, err)
		}
	}
	if _, err := codec.NewReader(withCRC([]byte("NOTASNAP\x02"))); err == nil {
		t.Error("NewReader accepted a bad magic")
	}
}
