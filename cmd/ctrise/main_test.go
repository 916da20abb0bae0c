package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ctrise.golden from this run")

// TestGolden pins the paper output: every section at a small, fast
// shape must render byte-identically at any parallelism. A refactor of
// a pipeline that changes a table, a figure or a total fails here.
func TestGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "ctrise.golden")
	for _, p := range []int{1, 4} {
		t.Run("parallelism="+strconv.Itoa(p), func(t *testing.T) {
			var out bytes.Buffer
			args := []string{"-seed", "2018", "-scale", "0.2", "-domains", "3000", "-parallelism", strconv.Itoa(p)}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			if *updateGolden && p == 1 {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("ctrise output differs from %s (run with -update to regenerate)\n got:\n%s", goldenPath, out.Bytes())
			}
		})
	}
}

// TestRunRejectsUnknownFlag checks that a bad flag is reported as an
// error rather than terminating the process.
func TestRunRejectsUnknownFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("want error for unknown flag")
	}
}
