// Package snapshot implements the versioned, checksummed binary codec
// behind deterministic checkpoint/resume: a sticky-error Encoder/Decoder
// pair over fixed-width little-endian primitives, a self-describing frame
// format (magic, version, length, CRC64), and crash-safe file persistence
// (same-directory temp file, fsync, atomic rename). Higher layers write
// each stateful type's layout once, as a State method over a Stream that
// saves or loads in one pass; this package knows nothing about routers or
// flits.
//
// # Frame format
//
// A snapshot frame is
//
//	"ROCOSNAP" | version u32 | payload length u64 | payload | CRC64 u64
//
// with all integers little-endian and the CRC64 (ECMA polynomial) taken
// over the payload bytes alone. Read verifies the magic, version, length
// and checksum before handing out a single payload byte, so any torn or
// truncated write — at every byte boundary — surfaces as ErrCorrupt,
// never as a partially decoded state.
package snapshot

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Version is the current snapshot format version. Readers reject frames
// written by a different version (state layouts are not cross-version
// compatible). Version 2 added multi-cycle D2D pipe stages to the link
// codec, a Port field to fault events, and severed-port masks to routers.
const Version = 2

// magic leads every frame; eight bytes so the header reads as two aligned
// words.
const magic = "ROCOSNAP"

// ErrCorrupt reports a frame that failed structural validation: bad magic,
// impossible length, checksum mismatch, a truncated payload, or a decoder
// that ran past the data. It is the typed error the kill-mid-write
// recovery path keys on.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated")

// ErrVersion reports a structurally valid frame written by an
// incompatible format version.
var ErrVersion = errors.New("snapshot: incompatible format version")

// crcTable is the ECMA CRC64 table shared by writer and reader.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Encoder accumulates a snapshot payload in memory. All methods append
// fixed-width little-endian encodings; the zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64 (two's-complement bit pattern).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as an int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 by its IEEE-754 bit pattern, preserving the exact
// value (including signed zeros and NaN payloads).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(v []byte) {
	e.Int(len(v))
	e.buf = append(e.buf, v...)
}

// WriteTo writes the complete frame (header, payload, checksum). It
// implements io.WriterTo; the encoder may keep accumulating and be written
// again, producing a fresh frame each time.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, 0, len(magic)+4+8)
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(e.buf)))
	var total int64
	for _, chunk := range [][]byte{hdr, e.buf, binary.LittleEndian.AppendUint64(nil, crc64.Checksum(e.buf, crcTable))} {
		k, err := w.Write(chunk)
		total += int64(k)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Decoder consumes a verified snapshot payload. The first failed read
// poisons the decoder (Err turns non-nil) and every subsequent read
// returns zero values, so calling code decodes straight-line and checks
// the error once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// Read consumes a complete frame from r, verifying the magic, version,
// length and checksum before returning a decoder over the payload. Any
// structural defect — including truncation at every possible byte
// boundary — returns an error wrapping ErrCorrupt (or ErrVersion for a
// valid frame of a foreign version).
func Read(r io.Reader) (*Decoder, error) {
	hdr := make([]byte, len(magic)+4+8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != Version {
		return nil, fmt.Errorf("%w: frame version %d, reader version %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint64(hdr[len(magic)+4:])
	// An impossible length must not drive a huge allocation: read
	// incrementally through a limited reader and let truncation surface
	// as a short read.
	const maxChunk = 1 << 20
	payload := make([]byte, 0, min64(n, maxChunk))
	remaining := n
	for remaining > 0 {
		chunk := min64(remaining, maxChunk)
		start := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return nil, fmt.Errorf("%w: short payload: %v", ErrCorrupt, err)
		}
		remaining -= uint64(chunk)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: short checksum: %v", ErrCorrupt, err)
	}
	if got, want := crc64.Checksum(payload, crcTable), binary.LittleEndian.Uint64(sum[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return &Decoder{buf: payload}, nil
}

func min64(a uint64, b int) int {
	if a < uint64(b) {
		return int(a)
	}
	return b
}

// Err returns the first decoding failure (nil while healthy).
func (d *Decoder) Err() error { return d.err }

// Corruptf poisons the decoder with a semantic-validation failure (a
// structural check by calling code, e.g. a state count that cannot match
// the constructed network). No-op if already poisoned.
func (d *Decoder) Corruptf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Finish reports the final decoder state: the sticky error if any,
// otherwise an ErrCorrupt if payload bytes remain unconsumed (a layout
// mismatch between writer and reader).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// take reserves n payload bytes, poisoning the decoder when fewer remain.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = fmt.Errorf("%w: payload exhausted", ErrCorrupt)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 by bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool, poisoning the decoder on any byte other than 0 or 1.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Corruptf("invalid bool byte")
		return false
	}
}

// Bytes reads a length-prefixed byte slice (always a fresh copy).
func (d *Decoder) Bytes() []byte {
	n := d.SliceLen(1)
	b := d.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// SliceLen reads a slice length prefix and validates it against the
// remaining payload: a slice of n elements of at least elemBytes each
// cannot outsize the bytes left, so a corrupt length can never drive an
// oversized allocation. elemBytes below 1 is treated as 1.
func (d *Decoder) SliceLen(elemBytes int) int {
	if elemBytes < 1 {
		elemBytes = 1
	}
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > (len(d.buf)-d.off)/elemBytes {
		d.Corruptf("implausible slice length %d", n)
		return 0
	}
	return n
}

// WriteFileAtomic persists one frame crash-safely: the frame is written to
// a temp file in the target's directory, synced to stable storage, and
// atomically renamed over path; the directory is then synced so the rename
// itself is durable. A crash at any instant leaves either the complete old
// file or the complete new one — never a torn mix — and stray temp files
// from crashed writers are ignored by Latest.
func WriteFileAtomic(path string, e *Encoder) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := e.WriteTo(w)
		return err
	})
}

// WriteBytesAtomic persists raw bytes with the same crash-safety protocol
// as WriteFileAtomic (temp file, fsync, atomic rename, directory sync)
// but no snapshot framing — for client-facing artifacts like campaign
// result files that must be servable verbatim.
func WriteBytesAtomic(path string, data []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic runs the temp-fsync-rename-dirsync protocol around one
// write callback.
func writeAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		// Sync the directory so the rename survives power loss. Failure to
		// sync a directory is non-fatal on filesystems that do not support
		// it; the rename itself already happened.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// WriteJSONFileAtomic frames a JSON document inside a snapshot frame
// (magic, version, length, CRC64) and persists it crash-safely — the
// job-manifest format of the campaign service. The checksum means a torn
// manifest surfaces as ErrCorrupt on read, never as half-parsed JSON.
func WriteJSONFileAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	e := NewEncoder()
	e.Bytes(data)
	return WriteFileAtomic(path, e)
}

// ReadJSONFile reads a frame written by WriteJSONFileAtomic and
// unmarshals its JSON payload into v. Structural damage (truncation,
// checksum mismatch, malformed JSON) returns an error wrapping
// ErrCorrupt; a foreign format version returns ErrVersion.
func ReadJSONFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := Read(f)
	if err != nil {
		return err
	}
	data := d.Bytes()
	if err := d.Finish(); err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%w: manifest JSON: %v", ErrCorrupt, err)
	}
	return nil
}

// SweepTemp removes stale in-progress atomic-write files (the
// ".tmp-*" leftovers of a writer killed mid-write) from dir, returning
// the paths removed. Call it only when the caller owns the directory —
// at resume or checkpoint startup — never while another writer may be
// mid-protocol. A missing directory sweeps nothing.
func SweepTemp(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, name := range names {
		if rerr := os.Remove(name); rerr == nil {
			removed = append(removed, name)
		} else if err == nil && !errors.Is(rerr, os.ErrNotExist) {
			err = rerr
		}
	}
	return removed, err
}

// tmpPrefix marks in-progress atomic writes; Latest skips such files.
const tmpPrefix = ".tmp-"

// ErrNoSnapshot reports that a directory holds no valid snapshot to
// resume from.
var ErrNoSnapshot = errors.New("snapshot: no valid snapshot found")

// Latest returns the newest structurally valid snapshot file in dir among
// those matching the glob pattern (e.g. "ckpt-*.rocosnap"). Files are
// ordered by name descending — checkpoint writers embed a zero-padded
// cycle number precisely so that lexical order is temporal order — and
// each candidate's frame is fully verified (checksum included) before it
// is chosen, so a torn newest file falls back to the previous valid one.
// Returns ErrNoSnapshot when nothing valid remains.
func Latest(dir, pattern string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		return "", err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		if strings.HasPrefix(filepath.Base(name), tmpPrefix) {
			continue
		}
		f, err := os.Open(name)
		if err != nil {
			continue
		}
		_, err = Read(f)
		f.Close()
		if err == nil {
			return name, nil
		}
	}
	return "", ErrNoSnapshot
}
