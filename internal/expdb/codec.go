package expdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"harmony/internal/history"
	"harmony/internal/search"
)

// record is one framed entry of either file in a data directory: a single
// experience under its namespace key, stamped with a log sequence number so
// replay after a snapshot can skip entries the snapshot already covers. A
// record with a nil Exp is a horizon record: it opens every snapshot with
// the highest LSN the snapshot folds in and the number of experience
// records that follow, so a snapshot cut between two frames is caught.
type record struct {
	// LSN is the log sequence number (monotone per store in the WAL; 0 on
	// a snapshot's experience records, which the horizon covers).
	LSN uint64
	// Key is the namespace ("app/spec-signature" on the server).
	Key string
	// Exp is the experience, or nil for a horizon record.
	Exp *history.Experience
	// Count is, on a horizon record, the number of experience records the
	// snapshot holds after it (unused on an experience record).
	Count uint64
}

// Frame layout: an 18-byte ASCII header — payload length (8 hex chars),
// space, CRC32-IEEE of the payload (8 hex chars), space — then the binary
// payload, then '\n'. The fixed-width header makes torn tails trivially
// detectable, and the CRC covers every payload byte of both files.
const (
	frameHeaderLen = 8 + 1 + 8 + 1
	// maxFramePayload bounds a frame so a corrupt length field cannot make
	// recovery read past any plausible record, and so the encoder refuses a
	// record recovery would reject.
	maxFramePayload = 16 << 20
)

// Payload layout. The first byte names the record's format; counts, the
// LSN and lengths are unsigned varints; configuration values, seq and
// direction are zigzag varints; characteristics and perf are IEEE-754
// bits, little-endian, so every float (NaN payloads, ±Inf, −0) round-trips
// bit-exactly.
//
//	experience: 0x01 lsn len(key) key len(label) label
//	            n(chars) chars×8B direction n(records)
//	            n × [ dim value×dim perf(8B) seq ]
//	horizon:    0x02 lsn count
//
// A JSON payload starts with '{', which is no format byte: a data
// directory from the JSON era is refused, never misread.
const (
	formatExperience byte = 0x01
	formatHorizon    byte = 0x02
)

var (
	// errUnknownFormat marks a CRC-intact payload whose format byte this
	// codec does not know: another writer's record, not a torn write.
	errUnknownFormat = errors.New("record in an unknown format")
	// errMalformed marks a CRC-intact payload in a known format that does
	// not decode. A crash cannot produce one either.
	errMalformed = errors.New("malformed record payload")
)

// appendRecordFrame appends rec, framed, to dst. The payload is encoded in
// place after a header placeholder, so framing copies nothing.
func appendRecordFrame(dst []byte, rec record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, "00000000 00000000 "...)
	dst = appendPayload(dst, rec)
	payload := dst[start+frameHeaderLen:]
	if len(payload) > maxFramePayload {
		return dst[:start], fmt.Errorf("expdb: record under %q is %d bytes (limit %d)", rec.Key, len(payload), maxFramePayload)
	}
	putHex(dst[start:start+8], uint32(len(payload)))
	putHex(dst[start+9:start+17], crc32.ChecksumIEEE(payload))
	return append(dst, '\n'), nil
}

// decodeFrames decodes framed records from b until it ends or the first
// corruption. It returns the records, the byte offset one past the last
// intact frame (the safe truncation point), and a non-nil error describing
// why decoding stopped early — nil when b ended cleanly on a frame
// boundary. Garbage, torn tails and CRC mismatches never panic and never
// lose records before the corruption point. A CRC-intact frame whose
// payload does not decode stops decoding with an error wrapping
// errUnknownFormat or errMalformed (see intactButUndecodable).
func decodeFrames(b []byte) (recs []record, validLen int, err error) {
	d := decoder{build: true}
	off := 0
	for off < len(b) {
		payload, next, ferr := nextFrame(b, off)
		if ferr != nil {
			return recs, off, ferr
		}
		rec, derr := d.decode(payload)
		if derr != nil {
			return recs, off, fmt.Errorf("expdb: undecodable record at offset %d: %w", off, derr)
		}
		recs = append(recs, rec)
		off = next
	}
	return recs, off, nil
}

// nextFrame checks the frame at b[off:] — header, length, terminator and
// CRC — and returns its payload and the offset one past the frame.
func nextFrame(b []byte, off int) (payload []byte, next int, err error) {
	rest := b[off:]
	if len(rest) < frameHeaderLen {
		return nil, off, fmt.Errorf("expdb: torn frame header at offset %d", off)
	}
	length, lok := parseHex(rest[:8])
	sum, sok := parseHex(rest[9:17])
	if rest[8] != ' ' || rest[17] != ' ' || !lok || !sok {
		return nil, off, fmt.Errorf("expdb: corrupt frame header at offset %d", off)
	}
	if length > maxFramePayload {
		return nil, off, fmt.Errorf("expdb: frame at offset %d claims %d bytes (limit %d)", off, length, maxFramePayload)
	}
	end := frameHeaderLen + int(length)
	if len(rest) <= end {
		return nil, off, fmt.Errorf("expdb: torn frame payload at offset %d", off)
	}
	payload = rest[frameHeaderLen:end]
	if rest[end] != '\n' {
		return nil, off, fmt.Errorf("expdb: frame at offset %d not newline-terminated", off)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, off, fmt.Errorf("expdb: CRC mismatch at offset %d (stored %08x, computed %08x)", off, sum, got)
	}
	return payload, off + end + 1, nil
}

// intactButUndecodable reports whether decodeFrames stopped at a frame
// whose CRC held but whose payload did not decode: a record some other
// writer produced or damage the CRC missed, never a torn write, so
// recovery refuses it instead of truncating it away.
func intactButUndecodable(err error) bool {
	return errors.Is(err, errUnknownFormat) || errors.Is(err, errMalformed)
}

// appendPayload appends rec's payload (no frame) to dst.
func appendPayload(dst []byte, rec record) []byte {
	e := rec.Exp
	if e == nil {
		dst = binary.AppendUvarint(append(dst, formatHorizon), rec.LSN)
		return binary.AppendUvarint(dst, rec.Count)
	}
	dst = binary.AppendUvarint(append(dst, formatExperience), rec.LSN)
	dst = appendString(dst, rec.Key)
	dst = appendString(dst, e.Label)
	dst = binary.AppendUvarint(dst, uint64(len(e.Characteristics)))
	for _, c := range e.Characteristics {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
	}
	dst = binary.AppendVarint(dst, int64(e.Direction))
	dst = binary.AppendUvarint(dst, uint64(len(e.Records)))
	for _, r := range e.Records {
		dst = binary.AppendUvarint(dst, uint64(len(r.Config)))
		for _, v := range r.Config {
			dst = binary.AppendVarint(dst, int64(v))
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Perf))
		dst = binary.AppendVarint(dst, int64(r.Seq))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Smallest encodings, which bound every count by the bytes left to hold
// it: a declared count can never make the decoder allocate more than a
// small multiple of the payload's length.
const (
	minFloatLen  = 8
	minRecordLen = 1 + 8 + 1 // dim, perf, seq
)

// decoder parses record payloads. It accepts only the canonical encoding
// appendPayload produces — minimal varints, no trailing bytes — so every
// payload it decodes re-encodes to the same bytes. It runs in one of two
// modes that make the same reads and the same checks, so both accept
// exactly the same payloads: building (build set) returns each experience
// whole, while validating builds nothing and reports only an experience's
// key and measurement count — the snapshot walk at Open, which leaves the
// building to a namespace's first use.
type decoder struct {
	build bool
	// key and label are the last strings decoded. A payload carrying the
	// same bytes reuses them, so consecutive frames of one namespace share
	// one key string and the walk allocates one per namespace.
	key, label string
}

// decode parses one payload. rec.Count is, on an experience, its number of
// measurements, in both modes; rec.Exp is set only when building, so a
// caller of a validating decoder tells the two formats apart by p[0].
func (d *decoder) decode(p []byte) (rec record, err error) {
	if len(p) == 0 {
		return record{}, errMalformed
	}
	r := payloadReader{b: p[1:]}
	switch p[0] {
	case formatHorizon:
		rec.LSN = r.uvarint()
		rec.Count = r.uvarint()
	case formatExperience:
		rec.LSN = r.uvarint()
		if k := r.bytes(); string(k) != d.key {
			d.key = string(k)
		}
		rec.Key = d.key
		label := r.bytes()
		var chars []float64
		if n := r.count(minFloatLen); n > 0 && d.build {
			chars = make([]float64, n)
			for i := range chars {
				chars[i] = r.float()
			}
		} else {
			r.skip(n * minFloatLen)
		}
		dir := search.Direction(r.int())
		n := r.count(minRecordLen)
		rec.Count = uint64(n)
		var recs []history.ConfigPerf
		var slab []int
		if n > 0 && d.build {
			recs = make([]history.ConfigPerf, n)
			// Every record spends at least minRecordLen bytes beside its
			// values and every value at least one, which bounds the values
			// of a well-formed payload: all of them fit one slab.
			slab = make([]int, 0, max(len(r.b)-n*minRecordLen, 0))
		}
		for i := 0; i < n; i++ {
			dim := r.count(1)
			start := len(slab)
			if recs != nil && dim > cap(slab)-start {
				r.fail() // past the bound: the payload cannot be well formed
			}
			slab = r.ints(dim, slab, recs != nil)
			perf, seq := r.float(), r.int()
			if recs != nil {
				cp := &recs[i]
				if dim > 0 {
					// A full slice expression, so an append to one
					// configuration cannot write into the next.
					cp.Config = slab[start:len(slab):len(slab)]
				}
				cp.Perf, cp.Seq = perf, seq
			}
		}
		if d.build {
			if string(label) != d.label {
				d.label = string(label)
			}
			rec.Exp = &history.Experience{Label: d.label, Characteristics: chars, Direction: dir, Records: recs}
		}
	default:
		return record{}, fmt.Errorf("%w (format byte 0x%02x)", errUnknownFormat, p[0])
	}
	if len(r.b) != 0 {
		r.fail() // trailing bytes
	}
	if r.bad {
		return record{}, errMalformed
	}
	return rec, nil
}

// payloadReader consumes a payload front to back. The first failure
// sticks: it empties the reader, later reads return zero values, and
// decode reports it once at the end.
type payloadReader struct {
	b   []byte
	bad bool
}

func (r *payloadReader) fail() {
	r.b, r.bad = nil, true
}

// uvarint reads a minimal unsigned varint: an overlong encoding (one whose
// last byte is zero) would decode to the same value but re-encode shorter.
// A one-byte varint, minimal by construction, takes the inlined fast path.
func (r *payloadReader) uvarint() uint64 {
	if len(r.b) == 0 || r.b[0] >= 0x80 {
		return r.uvarintSlow()
	}
	v := r.b[0]
	r.b = r.b[1:]
	return uint64(v)
}

func (r *payloadReader) uvarintSlow() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a zigzag varint that fits an int.
func (r *payloadReader) int() int { return r.zigzag(r.uvarint()) }

// ints reads n zigzag varints that fit an int, appending them to dst when
// keep is set. It is the configuration values' loop, so it inlines the
// one-byte fast path of uvarint.
func (r *payloadReader) ints(n int, dst []int, keep bool) []int {
	b, i := r.b, 0
	for ; n > 0; n-- {
		var u uint64
		if i < len(b) && b[i] < 0x80 {
			u = uint64(b[i])
			i++
		} else {
			r.b = b[i:]
			if u = r.uvarintSlow(); r.bad {
				return dst
			}
			b, i = r.b, 0
		}
		if v := r.zigzag(u); keep {
			dst = append(dst, v)
		}
	}
	r.b = b[i:]
	return dst
}

// zigzag decodes a zigzag-encoded value, failing when it does not fit an
// int.
func (r *payloadReader) zigzag(u uint64) int {
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		r.fail()
		return 0
	}
	return int(v)
}

// count reads an element count and checks that the rest of the payload
// can hold that many elements of at least minLen bytes each.
func (r *payloadReader) count(minLen int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minLen) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *payloadReader) bytes() []byte {
	n := r.count(1)
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// skip consumes n bytes.
func (r *payloadReader) skip(n int) {
	if len(r.b) < n {
		r.fail()
		return
	}
	r.b = r.b[n:]
}

func (r *payloadReader) float() float64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// putHex writes v as 8 lower-case hex digits into dst[:8].
func putHex(dst []byte, v uint32) {
	const digits = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// parseHex reads 8 lower-case hex digits; the header shape is checked
// strictly, so signs, spaces and upper case are corruption.
func parseHex(b []byte) (uint32, bool) {
	var v uint32
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}
