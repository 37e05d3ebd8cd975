package tracein

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format (DESIGN.md §14):
//
//	header := magic("MTRC") uvarint(version) uvarint(flags)
//	record := kind:1 uvarint(tenant) uvarint(ts_delta)
//	          uvarint(arg0) uvarint(arg1) uvarint(arg2)
//	          [crc32c:4 LE]                       (iff flags&FlagCRC)
//
// All varints are canonical (minimal-length) — the decoder rejects
// overlong encodings — so decode∘encode is the identity on valid
// streams and the round-trip property tests can demand byte equality.
// The per-record CRC is Castagnoli over the record's own bytes (kind
// through arg2); it catches torn writes in long-lived trace archives
// without forcing a whole-file pass before replay can start.

// Version is the current (and only) wire version.
const Version = 1

// FlagCRC enables the per-record CRC32C trailer.
const FlagCRC = 1 << 0

var magic = [4]byte{'M', 'T', 'R', 'C'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode/encode failure modes, all matchable with errors.Is. Truncated
// input surfaces as io.ErrUnexpectedEOF (mid-header or mid-record);
// only a clean between-records end returns io.EOF from Decoder.Next.
var (
	// ErrBadMagic means the input does not start with the trace magic.
	ErrBadMagic = errors.New("tracein: bad magic (not a trace stream)")
	// ErrVersion means the header carries a version (or flag bits)
	// this decoder does not speak.
	ErrVersion = errors.New("tracein: unsupported trace version")
	// ErrCRC means a record failed its CRC32C check.
	ErrCRC = errors.New("tracein: record CRC mismatch")
	// ErrMalformed means a structurally invalid record: unknown kind,
	// oversized tenant, non-canonical or overflowing varint, or a
	// timestamp delta that wraps the logical clock.
	ErrMalformed = errors.New("tracein: malformed record")
)

// maxUvarintLen is the longest canonical 64-bit varint.
const maxUvarintLen = 10

// Encoder writes the streaming trace format. Not safe for concurrent
// use. The caller owns buffering of the underlying writer; Encoder
// writes each header/record with one Write call.
type Encoder struct {
	w      io.Writer
	crc    bool
	lastTS uint64
	n      int
	buf    [1 + 5*maxUvarintLen + 4]byte
}

// NewEncoder writes the header (version 1, CRC flag as given) and
// returns an encoder for the stream.
func NewEncoder(w io.Writer, crc bool) (*Encoder, error) {
	e := &Encoder{w: w, crc: crc}
	var hdr [4 + 2*binary.MaxVarintLen64]byte
	n := copy(hdr[:], magic[:])
	n += binary.PutUvarint(hdr[n:], Version)
	var flags uint64
	if crc {
		flags |= FlagCRC
	}
	n += binary.PutUvarint(hdr[n:], flags)
	if _, err := w.Write(hdr[:n]); err != nil {
		return nil, fmt.Errorf("tracein: write header: %w", err)
	}
	return e, nil
}

// Encode appends one record. Events must arrive in non-decreasing TS
// order (the wire format stores deltas) with valid kinds and tenants;
// violations are caller bugs and are reported as errors, not clamped.
func (e *Encoder) Encode(ev Event) error {
	if ev.Kind >= numKinds {
		return fmt.Errorf("%w: kind %d", ErrMalformed, ev.Kind)
	}
	if ev.Tenant > MaxTenant {
		return fmt.Errorf("%w: tenant %d > %d", ErrMalformed, ev.Tenant, uint32(MaxTenant))
	}
	if ev.TS < e.lastTS {
		return fmt.Errorf("%w: timestamp %d regresses below %d", ErrMalformed, ev.TS, e.lastTS)
	}
	b := e.buf[:0]
	b = append(b, byte(ev.Kind))
	b = binary.AppendUvarint(b, uint64(ev.Tenant))
	b = binary.AppendUvarint(b, ev.TS-e.lastTS)
	b = binary.AppendUvarint(b, ev.Arg0)
	b = binary.AppendUvarint(b, ev.Arg1)
	b = binary.AppendUvarint(b, ev.Arg2)
	if e.crc {
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
	}
	if _, err := e.w.Write(b); err != nil {
		return fmt.Errorf("tracein: write record: %w", err)
	}
	e.lastTS = ev.TS
	e.n++
	return nil
}

// Events returns how many records have been encoded.
func (e *Encoder) Events() int { return e.n }

// Encode encodes a whole event slice to w in one call.
func Encode(w io.Writer, events []Event, crc bool) error {
	enc, err := NewEncoder(w, crc)
	if err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// Decoder reads the streaming trace format: construct (header is read
// and validated immediately), then call Next until io.EOF. The decoder
// never reads past the bytes the format calls for and never panics on
// malformed input — any structural problem surfaces as a wrapped
// ErrBadMagic/ErrVersion/ErrCRC/ErrMalformed/io.ErrUnexpectedEOF.
// Next is allocation-free in the steady state (pinned by
// TestDecoderZeroAlloc); construction allocates the read buffer once,
// Reset reuses it for the next stream. Not safe for concurrent use.
type Decoder struct {
	r      *bufio.Reader
	crc    bool
	lastTS uint64
	events int
	crcAcc uint32
	one    [1]byte
}

// NewDecoder reads and validates the stream header.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r)}
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset repoints the decoder at a new stream, reusing its buffer, and
// reads the new stream's header.
func (d *Decoder) Reset(r io.Reader) error {
	d.r.Reset(r)
	d.crc = false
	d.lastTS = 0
	d.events = 0
	return d.readHeader()
}

// CRC reports whether the stream carries per-record CRCs.
func (d *Decoder) CRC() bool { return d.crc }

// Events returns how many records have been decoded so far.
func (d *Decoder) Events() int { return d.events }

func (d *Decoder) readHeader() error {
	// Byte-at-a-time (not io.ReadFull into a local) so Reset+decode of
	// a whole stream stays allocation-free.
	for i := range magic {
		b, err := d.r.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("%w: truncated header: %w", ErrBadMagic, io.ErrUnexpectedEOF)
			}
			return fmt.Errorf("tracein: read header: %w", err)
		}
		if b != magic[i] {
			return fmt.Errorf("%w: byte %d is %#02x", ErrBadMagic, i, b)
		}
	}
	ver, err := d.readUvarint(false)
	if err != nil {
		return fmt.Errorf("tracein: header version: %w", err)
	}
	if ver != Version {
		return fmt.Errorf("%w: version %d (want %d)", ErrVersion, ver, Version)
	}
	flags, err := d.readUvarint(false)
	if err != nil {
		return fmt.Errorf("tracein: header flags: %w", err)
	}
	if flags&^uint64(FlagCRC) != 0 {
		return fmt.Errorf("%w: unknown flag bits %#x", ErrVersion, flags&^uint64(FlagCRC))
	}
	d.crc = flags&FlagCRC != 0
	return nil
}

// Next decodes one record into ev. It returns io.EOF at a clean end of
// stream (between records) and leaves ev untouched on any error.
func (d *Decoder) Next(ev *Event) error {
	kb, err := d.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("tracein: read record: %w", err)
	}
	d.crcAcc = crc32.Update(0, crcTable, appendByte(&d.one, kb))
	if Kind(kb) >= numKinds {
		return fmt.Errorf("%w: unknown kind %d", ErrMalformed, kb)
	}
	tenant, err := d.readUvarint(true)
	if err != nil {
		return fmt.Errorf("tracein: record tenant: %w", err)
	}
	if tenant > MaxTenant {
		return fmt.Errorf("%w: tenant %d > %d", ErrMalformed, tenant, uint64(MaxTenant))
	}
	delta, err := d.readUvarint(true)
	if err != nil {
		return fmt.Errorf("tracein: record ts: %w", err)
	}
	ts := d.lastTS + delta
	if ts < d.lastTS {
		return fmt.Errorf("%w: timestamp delta %d wraps the clock", ErrMalformed, delta)
	}
	var args [3]uint64
	for i := range args {
		if args[i], err = d.readUvarint(true); err != nil {
			return fmt.Errorf("tracein: record arg%d: %w", i, err)
		}
	}
	if d.crc {
		// Byte-at-a-time so the scratch bytes never escape to the
		// heap: Next stays allocation-free per record.
		var got uint32
		for i := 0; i < 4; i++ {
			b, err := d.r.ReadByte()
			if err != nil {
				return fmt.Errorf("tracein: record crc: %w", noEOF(err))
			}
			got |= uint32(b) << (8 * i)
		}
		if got != d.crcAcc {
			return fmt.Errorf("%w: got %#08x want %#08x", ErrCRC, got, d.crcAcc)
		}
	}
	ev.Kind = Kind(kb)
	ev.Tenant = uint32(tenant)
	ev.TS = ts
	ev.Arg0 = args[0]
	ev.Arg1 = args[1]
	ev.Arg2 = args[2]
	d.lastTS = ts
	d.events++
	return nil
}

// readUvarint reads one canonical uvarint byte-by-byte, folding each
// byte into the running record CRC when inRecord. It rejects overlong
// (non-minimal) encodings and 64-bit overflow, so every decoded value
// has exactly one wire image.
func (d *Decoder) readUvarint(inRecord bool) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < maxUvarintLen; i++ {
		b, err := d.r.ReadByte()
		if err != nil {
			return 0, noEOF(err)
		}
		if inRecord {
			d.crcAcc = crc32.Update(d.crcAcc, crcTable, appendByte(&d.one, b))
		}
		if b < 0x80 {
			if i == maxUvarintLen-1 && b > 1 {
				return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed)
			}
			if i > 0 && b == 0 {
				return 0, fmt.Errorf("%w: non-canonical varint", ErrMalformed)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed)
}

// appendByte stages one byte in the decoder's fixed scratch cell so
// crc32.Update sees a slice without allocating.
func appendByte(one *[1]byte, b byte) []byte {
	one[0] = b
	return one[:]
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// header or record, running out of bytes is truncation, not a clean
// end of stream.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Decode reads a whole stream into memory: the header, then records
// until clean EOF. Tools and tests use it; the replay engine streams
// through Decoder.Next instead.
func Decode(r io.Reader) ([]Event, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	var out []Event
	var ev Event
	for {
		switch err := d.Next(&ev); {
		case err == nil:
			out = append(out, ev)
		case errors.Is(err, io.EOF):
			return out, nil
		default:
			return out, err
		}
	}
}
