package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUsageErrors pins that every bad flag is a clean usage error —
// exit 2 with a message naming what is wrong, no trajectory, no panic.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-bogus"}, "bogus"},
		{[]string{"-policy", "nope"}, `unknown policy "nope"`},
		{[]string{"-steps", "-1"}, "Steps -1 is negative"},
		{[]string{"-snapshot", "-2"}, "SnapshotEvery -2 is negative"},
		{[]string{"-shards", "-1"}, "Shards -1 is negative"},
	} {
		code, out, stderr := runTool(c.args...)
		if code != 2 || !strings.Contains(stderr, c.want) || strings.Contains(stderr, "panic") {
			t.Errorf("args %v: exit %d, stderr %q; want exit 2 naming %q", c.args, code, stderr, c.want)
		}
		if out != "" {
			t.Errorf("args %v: wrote a trajectory for bad flags:\n%s", c.args, out)
		}
	}
}

// TestShardJobsInvariantCSV runs a short sharded campaign at one and
// two shard jobs and checks the trajectory files match byte for byte.
func TestShardJobsInvariantCSV(t *testing.T) {
	dir := t.TempDir()
	var csvs []string
	for _, jobs := range []string{"1", "2"} {
		path := filepath.Join(dir, "s"+jobs+".csv")
		code, _, stderr := runTool("-policy", "ranger", "-steps", "30", "-snapshot", "5", "-audit", "1",
			"-shards", "2", "-shardjobs", jobs, "-csv", path)
		if code != 0 {
			t.Fatalf("-shardjobs %s: exit %d, stderr: %s", jobs, code, stderr)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		csvs = append(csvs, string(b))
	}
	if csvs[0] != csvs[1] || strings.Count(csvs[0], "\n") != 30/5+1 {
		t.Fatalf("trajectories differ or are malformed:\n--- 1\n%s\n--- 2\n%s", csvs[0], csvs[1])
	}
}
