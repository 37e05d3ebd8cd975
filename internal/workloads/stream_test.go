package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/osim"
)

// streamDigests pins each generator's output: the SHA-256 of the first
// 50,000 accesses (PC, VA, Write) at setup seed 1 and stream seed 3 on
// a native CA kernel. The generators are fill loops whose every draw
// must stay where it was, so any reordering of a draw, a skipped walker
// step or a changed bound moves the digest.
var streamDigests = map[string]string{
	"svm":      "5a6d4642eefb7e9ae0a0e01703c8e0b2f4a0448bb937214a29f83e2c8de559e7",
	"pagerank": "16386fd7a08859f2fd37cb58a07d22c63cd01aa9fd6ef20888efcfd9081b56a6",
	"hashjoin": "639b8de3c073571a72fabc440bbcda149df0f9dd7c1b94e1660d5d5eb75298e6",
	"xsbench":  "d7b358c0b0c6bfca540f310416ce130ef74937cac28496687724bdb1c704e483",
	"bt":       "4967c8c1517acddbfa68739e54a3cc1ee3225dff4786fc3b154db0c82108ed10",
}

func TestStreamDigests(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			k := osim.NewKernel(machineFor(t), osim.CAPolicy{})
			if err := w.Setup(NewNativeEnv(k, 0), rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
			const n = 50_000
			s := Batched(w.Stream(rand.New(rand.NewSource(3)), n))
			buf := make([]Access, 777)
			h := sha256.New()
			var rec []byte
			total := 0
			for {
				k := s.Fill(buf)
				if k == 0 {
					break
				}
				for _, a := range buf[:k] {
					rec = binary.LittleEndian.AppendUint64(rec[:0], a.PC)
					rec = binary.LittleEndian.AppendUint64(rec, uint64(a.VA))
					if a.Write {
						rec = append(rec, 1)
					} else {
						rec = append(rec, 0)
					}
					h.Write(rec)
				}
				total += k
			}
			if total != n {
				t.Fatalf("stream produced %d accesses, want %d", total, n)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != streamDigests[w.Name()] {
				t.Fatalf("stream digest %s, want %s", got, streamDigests[w.Name()])
			}
		})
	}
}
