// Package codec is the versioned binary encoding underneath snapshot
// files (internal/snap): unsigned LEB128 varints, zigzag signed varints,
// IEEE-754 float64 bits, length-prefixed strings, and named section tags,
// wrapped in a magic/version header and an IEEE CRC-32 trailer.
//
// A Stream runs in one direction, chosen when it is opened: NewWriter
// encodes, NewReader decodes. Every snapshotted type has one Sync method
// that passes each field to the Stream by pointer; on a writing stream
// the field's value is appended, on a reading stream the field is
// overwritten with the decoded value. One function therefore serves both
// directions, and the encode and decode halves cannot drift apart. The
// field encoder is picked by the field's Go type through generic
// constraints (Int, Uint, Float), so a float-valued type such as
// simtime.Rate cannot be passed to an integer encoder.
//
// The codec is deliberately dependency-free so every engine package
// (eventq, netsim, dcqcn, tcp, rl, acc, stats, hybrid, psim) can expose
// Sync methods over it without import cycles.
//
// Error handling is sticky on the read side: the first malformed field
// latches Err and every later accessor leaves its field unchanged, so a
// Sync method can decode a whole section and check the error once.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Magic identifies a snapshot byte stream.
const Magic = "ACCSNAP\x01"

// Version is the snapshot format version. Readers accept exactly this
// version. Version 2 encodes every float-valued field (simtime.Rate
// included) as IEEE-754 bits and every length through Stream.Len.
const Version uint16 = 2

// Stream is a snapshot byte stream being written or read.
type Stream struct {
	buf  []byte
	pos  int
	err  error
	load bool
}

// NewWriter starts a writing stream with the magic and format version.
func NewWriter() *Stream {
	s := &Stream{buf: make([]byte, 0, 4096)}
	s.buf = append(s.buf, Magic...)
	s.putUvarint(uint64(Version))
	return s
}

// NewReader validates the magic, version, and CRC-32 trailer of data and
// returns a reading stream positioned after the header.
func NewReader(data []byte) (*Stream, error) {
	if len(data) < len(Magic)+4 {
		return nil, fmt.Errorf("snapshot: truncated stream (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic (not a snapshot file)")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("snapshot: checksum mismatch (file corrupt): got %08x want %08x", got, want)
	}
	s := &Stream{buf: body, pos: len(Magic), load: true}
	v := s.uvarint()
	if s.err != nil {
		return nil, s.err
	}
	if v != uint64(Version) {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads only version %d", v, Version)
	}
	return s, nil
}

// Loading reports whether the stream decodes (true) or encodes (false).
// Sync methods use it to guard restore-only steps: re-arming timers,
// registering endpoints, rebinding callbacks.
func (s *Stream) Loading() bool { return s.load }

// Finish appends the CRC-32 trailer to a writing stream and returns the
// complete bytes. The stream must not be used afterwards.
func (s *Stream) Finish() []byte {
	sum := crc32.ChecksumIEEE(s.buf)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	s.buf = append(s.buf, tail[:]...)
	return s.buf
}

// Err returns the first decode error, or nil.
func (s *Stream) Err() error { return s.err }

// Fail latches a caller-detected restore error (state inconsistency rather
// than malformed bytes) so it surfaces through the same sticky-error path.
func (s *Stream) Fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (s *Stream) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("snapshot: "+format+" at offset %d", append(args, s.pos)...)
	}
}

func (s *Stream) putUvarint(v uint64) {
	for v >= 0x80 {
		s.buf = append(s.buf, byte(v)|0x80)
		v >>= 7
	}
	s.buf = append(s.buf, byte(v))
}

func (s *Stream) uvarint() uint64 {
	if s.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for {
		if s.pos >= len(s.buf) {
			s.fail("truncated varint")
			return 0
		}
		b := s.buf[s.pos]
		s.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
		if shift >= 64 {
			s.fail("varint overflow")
			return 0
		}
	}
}

// Signed, Unsigned and Floating are the field types each encoder accepts.
type (
	Signed interface {
		~int | ~int8 | ~int16 | ~int32 | ~int64
	}
	Unsigned interface {
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
	}
	Floating interface{ ~float64 }
)

// Int syncs a signed integer field as a zigzag varint.
func Int[T Signed](s *Stream, v *T) {
	if !s.load {
		x := int64(*v)
		s.putUvarint(uint64(x<<1) ^ uint64(x>>63))
		return
	}
	u := s.uvarint()
	if s.err == nil {
		*v = T(int64(u>>1) ^ -int64(u&1))
	}
}

// Uint syncs an unsigned integer field as a varint.
func Uint[T Unsigned](s *Stream, v *T) {
	if !s.load {
		s.putUvarint(uint64(*v))
		return
	}
	u := s.uvarint()
	if s.err == nil {
		*v = T(u)
	}
}

// Float syncs a float field as its IEEE-754 bit pattern (exact round
// trip, fractional values included).
func Float[T Floating](s *Stream, v *T) {
	if !s.load {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, math.Float64bits(float64(*v)))
		return
	}
	if s.err != nil {
		return
	}
	if s.pos+8 > len(s.buf) {
		s.fail("truncated float64")
		return
	}
	*v = T(math.Float64frombits(binary.LittleEndian.Uint64(s.buf[s.pos:])))
	s.pos += 8
}

// Bool syncs a boolean as one byte.
func (s *Stream) Bool(v *bool) {
	if !s.load {
		if *v {
			s.buf = append(s.buf, 1)
		} else {
			s.buf = append(s.buf, 0)
		}
		return
	}
	if s.err != nil {
		return
	}
	if s.pos >= len(s.buf) {
		s.fail("truncated bool")
		return
	}
	b := s.buf[s.pos]
	s.pos++
	if b > 1 {
		s.fail("invalid bool byte %d", b)
		return
	}
	*v = b == 1
}

// String syncs a length-prefixed string.
func (s *Stream) String(v *string) {
	n := len(*v)
	s.Len(&n, 1)
	if !s.load {
		s.buf = append(s.buf, *v...)
		return
	}
	if s.err == nil {
		*v = string(s.buf[s.pos : s.pos+n])
		s.pos += n
	}
}

// Tag syncs a named section marker: written as a string, and on read
// compared against name, which turns any layout skew into an immediate,
// located error instead of silently misaligned fields.
func (s *Stream) Tag(name string) {
	got := name
	s.String(&got)
	if s.err == nil && got != name {
		s.fail("section tag mismatch: got %q want %q", got, name)
	}
}

// Len syncs an element count as a varint. minSize is the fewest bytes
// one element occupies in the stream (at least 1). On read, a count
// larger than the remaining input divided by minSize fails the stream and
// leaves *n at 0, so a corrupt count can never size an allocation beyond
// what the input could fill.
func (s *Stream) Len(n *int, minSize int) {
	if !s.load {
		s.putUvarint(uint64(*n))
		return
	}
	u := s.uvarint()
	if s.err == nil && u > uint64(len(s.buf)-s.pos)/uint64(max(minSize, 1)) {
		s.fail("length %d exceeds the %d remaining bytes", u, len(s.buf)-s.pos)
	}
	*n = 0
	if s.err == nil {
		*n = int(u)
	}
}

// Floats syncs a length-prefixed []float64. On read the slice is replaced
// by a fresh one of the decoded length.
func Floats(s *Stream, xs *[]float64) { Slice(s, xs, 8, Float) }

// IntMap syncs a map with signed-integer keys, one (key, value) entry at
// a time in ascending key order, so equal maps encode to equal bytes. val
// syncs one value. On read the map is replaced by a fresh one.
func IntMap[K Signed, V any](s *Stream, m *map[K]V, val func(*Stream, *V)) {
	n := len(*m)
	s.Len(&n, 2)
	if s.load {
		if s.err != nil {
			return
		}
		*m = make(map[K]V, n)
		for i := 0; i < n && s.err == nil; i++ {
			var k K
			var v V
			Int(s, &k)
			val(s, &v)
			(*m)[k] = v
		}
		return
	}
	keys := make([]K, 0, n)
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		v := (*m)[k]
		Int(s, &k)
		val(s, &v)
	}
}

// Slice syncs a length-prefixed slice, one element at a time through
// elem. minSize is the fewest bytes one element occupies (see Len). On
// read the slice is replaced by a fresh one of the decoded length.
func Slice[E any](s *Stream, xs *[]E, minSize int, elem func(*Stream, *E)) {
	n := len(*xs)
	s.Len(&n, minSize)
	if s.load {
		if s.err != nil {
			return
		}
		*xs = make([]E, n)
	}
	for i := range *xs {
		elem(s, &(*xs)[i])
	}
}
