package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestSummaryGolden pins -summary byte for byte.
func TestSummaryGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-summary"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "summary.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}

// TestBinaryDigest pins the default -binary trace by its SHA-256, written
// to stdout and through -out alike.
func TestBinaryDigest(t *testing.T) {
	const want = "8d7bdf49d9e496539ffe44bfb38c1a8dc41e263be7df5dde446c5c3b72d296c6"
	var out bytes.Buffer
	if err := run([]string{"-binary"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fft.trace")
	var none bytes.Buffer
	if err := run([]string{"-binary", "-out", path}, &none); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if none.Len() != 0 {
		t.Errorf("-out also wrote %d bytes to stdout", none.Len())
	}
	for name, b := range map[string][]byte{"stdout": out.Bytes(), "-out": file} {
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: sha256 %x, want %s", name, sum, want)
		}
	}
}

// TestOutErrors: an -out file that cannot be written is an error, not a
// silent exit 0.
func TestOutErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-out", filepath.Join(t.TempDir(), "no", "such", "x")}, &out); err == nil {
		t.Error("-out into a missing directory succeeded")
	}
}
