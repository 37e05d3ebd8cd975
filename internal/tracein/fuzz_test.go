package tracein

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/check"
)

// fuzzSeedStream builds a small valid stream for the seed corpus.
func fuzzSeedStream(crc bool) []byte {
	var buf bytes.Buffer
	if err := Encode(&buf, Synth(SynthConfig{Seed: 7, Events: 8, Tenants: 2}), crc); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzTraceDecode hammers the decoder with arbitrary bytes. The
// invariants: never panic, never over-read (bytes.Reader bounds that),
// and on a clean decode the canonical-varint/delta-TS design means
// re-encoding the decoded events reproduces the input byte-for-byte.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(fuzzSeedStream(false))
	f.Add(fuzzSeedStream(true))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			checkDecodeErr(t, err)
			return
		}
		var evs []Event
		var ev Event
		for {
			err := d.Next(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				checkDecodeErr(t, err)
				return
			}
			evs = append(evs, ev)
		}
		// Clean decode: the stream must be exactly re-encodable.
		var out bytes.Buffer
		if err := Encode(&out, evs, d.CRC()); err != nil {
			t.Fatalf("decoded stream does not re-encode: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("re-encode of %d decoded events differs from input", len(evs))
		}
	})
}

// checkDecodeErr asserts a decode failure is one of the documented
// error classes, never something structural leaking out.
func checkDecodeErr(t *testing.T, err error) {
	t.Helper()
	for _, want := range []error{ErrBadMagic, ErrVersion, ErrCRC, ErrMalformed, io.ErrUnexpectedEOF} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("decode failed with undocumented error: %v", err)
}

// FuzzTraceReplay drains arbitrary byte streams through the full
// replay engine: whatever prefix decodes must apply without panicking,
// and the machine must audit clean afterwards — the serving mode's
// robustness contract against hostile or torn trace files.
func FuzzTraceReplay(f *testing.F) {
	f.Add(fuzzSeedStream(true))
	f.Add(fuzzSeedStream(false))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			checkDecodeErr(t, err)
			return
		}
		// Cap the replayed prefix so a fuzzer-grown stream cannot make
		// a single case arbitrarily slow.
		const maxEvents = 256
		var evs []Event
		var ev Event
		for len(evs) < maxEvents {
			err := d.Next(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				checkDecodeErr(t, err)
				break
			}
			evs = append(evs, ev)
		}
		e, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 1, Policy: check.PolicyCA})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := replaySlice(e, evs); err != nil {
			t.Fatalf("replay of decodable events failed: %v", err)
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("audit after replay: %v", err)
		}
	})
}
