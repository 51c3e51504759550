// Package codec holds the little-endian primitives shared by the
// persisted formats: the streamer state (core), the repair state (traj)
// and the spill envelope that carries both (server).
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"rlts/internal/geo"
)

// AppendF64 appends v's raw IEEE-754 bits, so NaN payloads round-trip.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendPoint appends p as f64 x, y, t.
func AppendPoint(b []byte, p geo.Point) []byte {
	return AppendF64(AppendF64(AppendF64(b, p.X), p.Y), p.T)
}

// Reader is a bounds-checked little-endian cursor over Buf from Off: a
// read past the end, or of a negative length, sets Err, and from then on
// every read returns zeros, so a decoder can read a whole header and
// check Err once.
type Reader struct {
	Buf []byte
	Off int
	Err error
}

// Take returns the next n bytes, or nil once Err is set.
func (d *Reader) Take(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if n < 0 || d.Off+n > len(d.Buf) {
		d.Err = fmt.Errorf("truncated at byte %d (need %d of %d)", d.Off, n, len(d.Buf))
		return nil
	}
	b := d.Buf[d.Off : d.Off+n]
	d.Off += n
	return b
}

// U8 reads one byte.
func (d *Reader) U8() byte {
	b := d.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as false (0) or true (anything else).
func (d *Reader) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Reader) U32() uint32 {
	b := d.Take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Reader) U64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64 from its raw bits.
func (d *Reader) F64() float64 { return math.Float64frombits(d.U64()) }

// Point reads f64 x, y, t.
func (d *Reader) Point() geo.Point {
	return geo.Point{X: d.F64(), Y: d.F64(), T: d.F64()}
}

// Count reads a u64 that must fit a non-negative int32, so a corrupt
// count cannot drive an allocation or overflow an int.
func (d *Reader) Count() int {
	v := d.U64()
	if d.Err == nil && v > math.MaxInt32 {
		d.Err = fmt.Errorf("implausible count %d at byte %d", v, d.Off)
		return 0
	}
	return int(v)
}

// Str reads a string behind a one-byte length of at most max.
func (d *Reader) Str(max int) string {
	n := d.Take(1)
	if n == nil {
		return ""
	}
	if int(n[0]) > max {
		d.Err = fmt.Errorf("string of %d bytes exceeds limit %d", n[0], max)
		return ""
	}
	return string(d.Take(int(n[0])))
}
