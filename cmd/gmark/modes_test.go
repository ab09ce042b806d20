package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/modes.crc from the current generation modes")

// TestGenerationModesPinned runs every generation mode of the batch CLI
// on bib@1000, seed 5 (five queries), and compares the CRC32 of each file it writes
// against testdata/modes.crc: the default, -partition (text and
// binary), -csr-spill in three shard encodings, -ntriples, and every
// extra output at once next to the frozen graph -verify and -ntriples
// hold. An intended byte change is re-recorded with -update-pins.
func TestGenerationModesPinned(t *testing.T) {
	modes := []struct {
		name  string
		flags []string
	}{
		{"default", nil},
		{"partition", []string{"-partition"}},
		{"partition-binary", []string{"-partition-binary"}},
		{"csr-none", []string{"-csr-spill", "-spill-compress", "none"}},
		{"csr-varint", []string{"-csr-spill", "-spill-compress", "varint"}},
		{"csr-raw", []string{"-csr-spill", "-spill-compress", "raw"}},
		{"ntriples", []string{"-ntriples"}},
		{"graph-sink", []string{"-verify", "-ntriples", "-partition", "-csr-spill"}},
	}
	var rows bytes.Buffer
	for _, m := range modes {
		out := t.TempDir()
		args := append([]string{"-usecase", "bib", "-nodes", "1000", "-seed", "5", "-queries", "5", "-out", out}, m.flags...)
		var stderr bytes.Buffer
		if err := run(args, &stderr); err != nil {
			t.Fatalf("%s: %v\n%s", m.name, err, stderr.String())
		}
		err := filepath.WalkDir(out, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(out, path)
			if err != nil {
				return err
			}
			fmt.Fprintf(&rows, "%s %s %08x\n", m.name, filepath.ToSlash(rel), crc32.ChecksumIEEE(b))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	golden := filepath.Join("testdata", "modes.crc")
	if *updatePins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, rows.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(rows.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("pin has %d rows, %s has %d", len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("output bytes moved: got %q, pinned %q", gotLines[i], wantLines[i])
		}
	}
}
