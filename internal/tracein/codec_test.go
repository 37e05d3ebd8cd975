package tracein

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// randomEvents builds an arbitrary-but-valid event sequence: any kind,
// any tenant in range, non-decreasing timestamps, args across the full
// uint64 range (small and huge) so varint widths all occur.
func randomEvents(rng *rand.Rand, n int) []Event {
	evs := make([]Event, n)
	var ts uint64
	for i := range evs {
		ts += uint64(rng.Intn(1 << uint(rng.Intn(20))))
		arg := func() uint64 {
			return rng.Uint64() >> uint(rng.Intn(64))
		}
		evs[i] = Event{
			Kind:   Kind(rng.Intn(int(numKinds))),
			Tenant: uint32(rng.Intn(MaxTenant + 1)),
			TS:     ts,
			Arg0:   arg(),
			Arg1:   arg(),
			Arg2:   arg(),
		}
	}
	return evs
}

// TestRoundTrip is the codec property test: arbitrary event sequences
// survive encode→decode exactly, and re-encoding the decoded events
// reproduces the original bytes (varints are canonical, timestamps are
// delta-coded from decoded absolutes — nothing in the wire image is
// ambiguous).
func TestRoundTrip(t *testing.T) {
	for _, crc := range []bool{false, true} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			evs := randomEvents(rng, 1+rng.Intn(200))
			var buf bytes.Buffer
			if err := Encode(&buf, evs, crc); err != nil {
				t.Fatalf("crc=%v seed=%d: encode: %v", crc, seed, err)
			}
			wire := append([]byte(nil), buf.Bytes()...)
			got, err := Decode(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("crc=%v seed=%d: decode: %v", crc, seed, err)
			}
			if len(got) != len(evs) {
				t.Fatalf("crc=%v seed=%d: decoded %d events, want %d", crc, seed, len(got), len(evs))
			}
			for i := range got {
				if got[i] != evs[i] {
					t.Fatalf("crc=%v seed=%d: event %d = %+v, want %+v", crc, seed, i, got[i], evs[i])
				}
			}
			var buf2 bytes.Buffer
			if err := Encode(&buf2, got, crc); err != nil {
				t.Fatalf("crc=%v seed=%d: re-encode: %v", crc, seed, err)
			}
			if !bytes.Equal(buf2.Bytes(), wire) {
				t.Fatalf("crc=%v seed=%d: re-encoded bytes differ from original", crc, seed)
			}
		}
	}
}

func TestEncoderRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Event{Kind: numKinds}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad kind: err = %v, want ErrMalformed", err)
	}
	if err := enc.Encode(Event{Tenant: MaxTenant + 1}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad tenant: err = %v, want ErrMalformed", err)
	}
	if err := enc.Encode(Event{TS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Event{TS: 9}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("ts regression: err = %v, want ErrMalformed", err)
	}
}

// encodeOne returns a valid one-event stream for corruption tests.
func encodeOne(t *testing.T, crc bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := Encode(&buf, []Event{{Kind: KindTouch, Tenant: 3, TS: 7, Arg0: 300, Arg1: 1, Arg2: 2}}, crc)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecoderErrors(t *testing.T) {
	valid := encodeOne(t, true)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"truncated magic", valid[:2], ErrBadMagic},
		{"bad magic", append([]byte("XTRC"), valid[4:]...), ErrBadMagic},
		{"truncated header", valid[:4], io.ErrUnexpectedEOF},
		{"version skew", append([]byte("MTRC\x02"), valid[5:]...), ErrVersion},
		{"unknown flags", append([]byte("MTRC\x01\x7e"), valid[6:]...), ErrVersion},
		{"mid-record cut", valid[:len(valid)-6], io.ErrUnexpectedEOF},
		{"crc cut", valid[:len(valid)-2], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		_, err := Decode(bytes.NewReader(tc.data))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// CRC flip: flip one bit in the record body.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-5] ^= 0x40
	if _, err := Decode(bytes.NewReader(flipped)); !errors.Is(err, ErrCRC) {
		t.Errorf("crc flip: err = %v, want ErrCRC", err)
	}

	// Unknown kind byte.
	noCRC := encodeOne(t, false)
	bad := append([]byte(nil), noCRC...)
	bad[6] = byte(numKinds) // first record byte after the 6-byte header
	if _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrMalformed) {
		t.Errorf("unknown kind: err = %v, want ErrMalformed", err)
	}

	// Non-canonical varint (overlong zero) in the tenant field.
	overlong := append([]byte(nil), noCRC[:7]...)
	overlong = append(overlong, 0x80, 0x00)   // tenant = 0, two bytes
	overlong = append(overlong, noCRC[8:]...) // rest of the record
	if _, err := Decode(bytes.NewReader(overlong)); !errors.Is(err, ErrMalformed) {
		t.Errorf("non-canonical varint: err = %v, want ErrMalformed", err)
	}

	// Varint overflowing 64 bits.
	over := append([]byte(nil), noCRC[:7]...)
	over = append(over, bytes.Repeat([]byte{0xff}, 10)...)
	if _, err := Decode(bytes.NewReader(over)); !errors.Is(err, ErrMalformed) {
		t.Errorf("varint overflow: err = %v, want ErrMalformed", err)
	}

	// Timestamp delta wrapping the logical clock.
	var wrap bytes.Buffer
	enc, err := NewEncoder(&wrap, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Event{Kind: KindTouch, TS: 1}); err != nil {
		t.Fatal(err)
	}
	w := wrap.Bytes()
	// Hand-build a second record whose delta is MaxUint64.
	w = append(w, byte(KindTouch), 0x00)
	w = append(w, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	w = append(w, 0x00, 0x00, 0x00)
	if _, err := Decode(bytes.NewReader(w)); !errors.Is(err, ErrMalformed) {
		t.Errorf("ts wrap: err = %v, want ErrMalformed", err)
	}
}

// TestDecoderZeroAlloc pins the decoder's steady state at zero heap
// allocations per record: the serving path decodes millions of events
// and must not churn the GC.
func TestDecoderZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Synth(SynthConfig{Seed: 3, Events: 512, Tenants: 4}), true); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	br := bytes.NewReader(data)
	d, err := NewDecoder(br)
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	allocs := testing.AllocsPerRun(50, func() {
		br.Reset(data)
		if err := d.Reset(br); err != nil {
			t.Fatal(err)
		}
		for {
			err := d.Next(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("decoder allocated %.1f times per stream, want 0", allocs)
	}
}

// TestSynthDeterministic pins that a config generates one trace.
func TestSynthDeterministic(t *testing.T) {
	cfg := SynthConfig{Seed: 11, Events: 2000, Tenants: 5}
	a, b := Synth(cfg), Synth(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And it is codec-clean.
	var buf bytes.Buffer
	if err := Encode(&buf, a, true); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(a) {
		t.Fatalf("decoded %d events, want %d", len(got), len(a))
	}
}

// TestOpsTotal pins that the Event→check.Op mapping is total: every
// kind maps to a valid op kind, so any decodable trace replays through
// check.Machine.
func TestOpsTotal(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		op := Event{Kind: k, Tenant: 9, Arg0: 1, Arg1: 2, Arg2: 3}.Op()
		if op.Kind.String() == "" {
			t.Fatalf("kind %v maps to invalid op", k)
		}
	}
	if len(Ops(Synth(SynthConfig{Seed: 1, Events: 100}))) != 100 {
		t.Fatal("Ops length mismatch")
	}
}
