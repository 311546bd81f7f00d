package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs the command with args and returns its stdout, failing t
// on a non-zero exit status.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("allarm-sim %s: exit %d\n%s", strings.Join(args, " "), code, errOut.String())
	}
	return out.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestExperimentDigests pins -exp output for every experiment id at a
// small access budget. The digests were recorded from the tool that
// regenerated the figures before it was folded into allarm-sim (its
// table output without the per-experiment timing lines), so they show
// that the merged, run-once sweep renders the same bytes as running
// each experiment's sweep on its own.
func TestExperimentDigests(t *testing.T) {
	for _, c := range []struct {
		format, want string
	}{
		{"", "f38717bc11a8ad9c165ecc907476a6ef69b5e56c8915efa2f96937cd3189f6fe"},
		{"-csv", "dc2e603d2c93c42817cc6cf4e746489a7f0831e9b96b36d5b326bf7cbb29c574"},
		{"-json", "e19a4120bf8b250f5501e04e640ed74a8dffff04fe7b2c33cfe6b26c12f768b3"},
	} {
		args := []string{"-exp", "all", "-accesses", "100"}
		if c.format != "" {
			args = append(args, c.format)
		}
		if got := digest(runCLI(t, args...)); got != c.want {
			t.Errorf("allarm-sim %s: sha256 %s, want %s", strings.Join(args, " "), got, c.want)
		}
	}
}

// TestGenDigest pins the bytes -gen captures, and checks that -info and
// a -pair replay read the file back.
func TestGenDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "barnes.trace")
	runCLI(t, "-gen", path, "-bench", "barnes", "-threads", "16", "-accesses", "500", "-seed", "1")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ba5c933d8054b1e9a4287633c837b529be700c25bfabb72d0b40f793848186ff"
	if got := digest(data); got != want {
		t.Fatalf("-gen trace sha256 %s, want %s", got, want)
	}
	if info := string(runCLI(t, "-info", path)); !strings.Contains(info, "16 threads") {
		t.Fatalf("-info: %q", info)
	}
	if out := string(runCLI(t, "-workload", "trace:"+path, "-pair")); !strings.Contains(out, "speedup") {
		t.Fatalf("-pair replay printed no comparison:\n%s", out)
	}
}

// TestUsageErrors: bad arguments exit non-zero without running anything.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-exp", "table1", "-json", "-csv"},
		{"-policy", "registered-nowhere"},
		{"-workload", "nope"},
		{"-no-such-flag"},
	} {
		if code := run(context.Background(), args, io.Discard, io.Discard); code == 0 {
			t.Errorf("allarm-sim %s: exit 0", strings.Join(args, " "))
		}
	}
}
