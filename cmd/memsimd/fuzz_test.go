package main

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"testing"

	"repro/internal/check"
	"repro/internal/tracein"
)

// fuzzStream encodes a trace of the given number of records whose
// fields each fit one varint byte, so all records with the same CRC
// flag have the same length; salt varies the content.
func fuzzStream(salt uint64, events int, crc bool) []byte {
	var buf bytes.Buffer
	enc, err := tracein.NewEncoder(&buf, crc)
	if err != nil {
		panic(err)
	}
	for i := uint64(0); i < uint64(events); i++ {
		err := enc.Encode(tracein.Event{
			Kind:   tracein.Kind((i + salt) % uint64(tracein.NumKinds())),
			Tenant: uint32((i + salt) % 3),
			TS:     i,
			Arg0:   (i*7 + salt) % 128,
			Arg1:   (i*13 + salt) % 128,
			Arg2:   (i*5 + salt) % 128,
		})
		if err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// locatedErr is the shape of a merged-input failure.
var locatedErr = regexp.MustCompile(`^part\d: record \d+: `)

// FuzzMergedReplay drains up to three decoded streams through the merge
// into a two-shard CA engine at Jobs 2. The first byte picks the stream
// count (1 + b%3); the rest splits into that many equal parts, each
// decoded as its own stream, and a part whose header fails is dropped,
// as memsimd refuses it at open. Whatever decodes must replay without
// panicking, any replay error must name its stream and record, and the
// machine must audit clean after Replay returns, error or not.
func FuzzMergedReplay(f *testing.F) {
	valid := fuzzStream(0, 8, true)
	// A no-CRC stream cut to the valid streams' length ends mid-record.
	torn := fuzzStream(2, 16, false)[:len(valid)]
	f.Add(append([]byte{1}, append(valid, fuzzStream(1, 8, true)...)...))
	f.Add(append([]byte{2}, bytes.Join([][]byte{valid, fuzzStream(1, 8, true), torn}, nil)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, rest := 1+int(data[0]%3), data[1:]
		src := &merged{}
		for i := 0; i < n; i++ {
			part := rest[i*len(rest)/n : (i+1)*len(rest)/n]
			d, err := tracein.NewDecoder(bytes.NewReader(part))
			if err != nil {
				continue
			}
			src.ins = append(src.ins, input{name: fmt.Sprintf("part%d", i), src: d})
		}
		e, err := tracein.NewEngine(tracein.ReplayConfig{Shards: 2, Jobs: 2, Policy: check.PolicyCA})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// Cap the replayed prefix so a fuzzer-grown input cannot make a
		// single case arbitrarily slow.
		left := 256
		var ev tracein.Event
		replayErr := e.ReplayStream(func() (tracein.Event, error) {
			if left == 0 {
				return tracein.Event{}, io.EOF
			}
			left--
			err := src.Next(&ev)
			return ev, err
		})
		if replayErr != nil && !locatedErr.MatchString(replayErr.Error()) {
			t.Fatalf("replay error does not name a stream and record: %v", replayErr)
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("audit after replay (replay error %v): %v", replayErr, err)
		}
	})
}
