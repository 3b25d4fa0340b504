package snapshot

import "fmt"

// Stream makes one pass over a snapshot payload in either direction: a
// stream from Encoder.Stream saves, one from Decoder.Stream loads. Its
// primitives take pointers — saving writes what they point at, loading
// overwrites it — so a type's State method lists each field once and is
// at the same time the writer and the reader of its layout; the two
// cannot drift apart.
//
// Code only one direction needs branches on Loading: allocating a slice
// to load into, sorting map keys before saving them, rebuilding derived
// state after a load. Validation needs no branch. A loading stream shares
// the decoder's sticky error, after which every primitive stores zero
// values; on a saving stream Err is always nil, and a check that fails
// there is a bug (the state could never be loaded back), so Corruptf
// panics.
type Stream struct {
	e *Encoder // set when saving
	d *Decoder // set when loading
}

// Stream returns a stream that appends to the encoder's payload.
func (e *Encoder) Stream() *Stream { return &Stream{e: e} }

// Stream returns a stream that loads from the decoder's payload.
func (d *Decoder) Stream() *Stream { return &Stream{d: d} }

// Loading reports whether the stream loads (true) or saves (false).
func (s *Stream) Loading() bool { return s.d != nil }

// Err returns the first loading failure; a saving stream never fails.
func (s *Stream) Err() error {
	if s.d == nil {
		return nil
	}
	return s.d.err
}

// Corruptf poisons a loading stream with a semantic-validation failure,
// as Decoder.Corruptf. On a saving stream it panics: the state being
// saved breaks an invariant its load enforces.
func (s *Stream) Corruptf(format string, args ...any) {
	if s.d == nil {
		panic(fmt.Sprintf("snapshot: saving invalid state: "+format, args...))
	}
	s.d.Corruptf(format, args...)
}

// U8 streams one byte.
func (s *Stream) U8(v *uint8) {
	if s.d != nil {
		*v = s.d.U8()
		return
	}
	s.e.U8(*v)
}

// U32 streams a little-endian uint32.
func (s *Stream) U32(v *uint32) {
	if s.d != nil {
		*v = s.d.U32()
		return
	}
	s.e.U32(*v)
}

// U64 streams a little-endian uint64.
func (s *Stream) U64(v *uint64) {
	if s.d != nil {
		*v = s.d.U64()
		return
	}
	s.e.U64(*v)
}

// I64 streams an int64.
func (s *Stream) I64(v *int64) {
	if s.d != nil {
		*v = s.d.I64()
		return
	}
	s.e.I64(*v)
}

// Int streams an int as an int64.
func (s *Stream) Int(v *int) {
	if s.d != nil {
		*v = s.d.Int()
		return
	}
	s.e.Int(*v)
}

// F64 streams a float64 by its bit pattern.
func (s *Stream) F64(v *float64) {
	if s.d != nil {
		*v = s.d.F64()
		return
	}
	s.e.F64(*v)
}

// Bool streams a bool as one byte; loading rejects any byte but 0 and 1.
func (s *Stream) Bool(v *bool) {
	if s.d != nil {
		*v = s.d.Bool()
		return
	}
	s.e.Bool(*v)
}

// Len streams a length prefix. Saving writes n and returns it; loading
// returns the stored length, validated like Decoder.SliceLen against the
// bytes left for elements of at least elemBytes each.
func (s *Stream) Len(n, elemBytes int) int {
	if s.d != nil {
		return s.d.SliceLen(elemBytes)
	}
	s.e.Int(n)
	return n
}

// Slice streams the length of *v; loading resizes *v to the stored
// length with zeroed elements, for the caller to stream one by one. The
// resize grows by append, so *v keeps any backing array it was built
// with and a nil slice loaded empty stays nil.
func Slice[T any](s *Stream, v *[]T, elemBytes int) {
	n := s.Len(len(*v), elemBytes)
	if s.d != nil {
		*v = append((*v)[:0], make([]T, n)...)
	}
}

// Enum streams a byte-sized named type (a direction, a kind tag) as one
// byte.
func Enum[T ~uint8](s *Stream, v *T) {
	if s.d != nil {
		*v = T(s.d.U8())
		return
	}
	s.e.U8(uint8(*v))
}

// Narrow streams an integer held in a type narrower than int as an Int,
// so a layout outlives the packing of the field it describes; loading
// rejects a value the type cannot hold as corruption.
func Narrow[T ~int8 | ~uint8 | ~int32](s *Stream, v *T) {
	if s.d == nil {
		s.e.Int(int(*v))
		return
	}
	x := s.d.Int()
	if int(T(x)) != x {
		s.d.Corruptf("value %d overflows %T", x, *v)
		return
	}
	*v = T(x)
}
