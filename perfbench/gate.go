package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// pinned are the output digests of one request of each workload at
// defaultSeed and fullSizes: the replay Result.Digest, the hash of every
// sim.Result counter of the twelve translate-stream runs, and the hash
// of the aging trajectory CSV. A change that moves any of them changed
// the modelled outputs, not only the speed.
var pinned = map[string]string{
	"replay-churn":     "e62c812225a716394ee3609f760a06cedd1974609a0efe4edc80c757bd74befb",
	"translate-stream": "221ed6c41061855fa7b04d5911654138af9e152451cedaa8f91e0b6cd15e51fd",
	"aging-churn":      "c2e39d94fa87260d399de69052d187c36b2ecd2a4494203f14cb072c9d12773b",
}

// provenance records what produced a result. The benchmark may run from
// a plain source tree without git metadata, so besides the commit (empty
// there) it records a digest of the tree's Go sources and go.mod files.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func provenanceLine(workload string, seed int64, trace int) string {
	b, _ := json.Marshal(map[string]provenance{"provenance": {
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit("."),
		SourceHash: sourceHash("."),
	}})
	return string(b)
}

// gitCommit reads the checked-out commit from root/.git without running
// git: HEAD is either a hash or "ref: <name>" naming a loose ref file.
// Returns "" when there is no repository or the ref is packed.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
		if err != nil {
			return ""
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}

// sourceHash digests every .go and go.mod file under root, in path
// order, skipping hidden directories (build output lives there).
// Returns "unknown" if the tree cannot be read.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
