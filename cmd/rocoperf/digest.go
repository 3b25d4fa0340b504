package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/snapshot"
)

// goldenJSON maps "<workload>/<scale>" to the digest of the first unit of
// work at seed 1 (see README.md, "Correctness gate").
//
//go:embed golden.json
var goldenJSON []byte

// loadGolden decodes the committed golden digests.
func loadGolden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenSeed is the seed the committed digests were taken at.
const goldenSeed = 1

// writeResult writes every field of a Result to w, numbers formatted with
// %v so that ±Inf and NaN digest like any other value. Pointers are
// followed, never printed, so the bytes depend only on simulated values.
func writeResult(w io.Writer, res roco.Result) {
	writeValue(w, reflect.ValueOf(res))
}

// resultDigest is the hex SHA-256 of writeResult's bytes.
func resultDigest(res roco.Result) string {
	h := sha256.New()
	writeResult(h, res)
	return hex.EncodeToString(h.Sum(nil))
}

// runDigest runs cfg to its end and returns its resultDigest.
func runDigest(cfg roco.Config) (string, error) {
	var digest string
	err := guard(func() error {
		digest = resultDigest(roco.Run(cfg))
		return nil
	})
	return digest, err
}

func writeValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		writeValue(w, v.Elem())
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			writeValue(w, v.Field(i))
		}
		io.WriteString(w, "}")
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			writeValue(w, v.Index(i))
		}
		io.WriteString(w, "]")
	default:
		fmt.Fprintf(w, "%v;", v)
	}
}

// frameDigest is the hex SHA-256 of a snapshot frame.
func frameDigest(frame []byte) string {
	sum := sha256.Sum256(frame)
	return hex.EncodeToString(sum[:])
}

// guard runs f, turning a panic into an error.
func guard(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// checkpoint returns the frame Sim.Checkpoint writes for sim.
func checkpoint(sim *roco.Sim) ([]byte, error) {
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// fingerprint returns the configuration fingerprint that leads the
// payload of a Sim.Checkpoint frame, so a frame rebuilt from a network
// outside roco.Sim can be compared byte for byte.
func fingerprint(frame []byte) (uint64, error) {
	d, err := snapshot.Read(bytes.NewReader(frame))
	if err != nil {
		return 0, err
	}
	fp := d.U64()
	return fp, d.Err()
}
