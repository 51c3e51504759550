// Package storage provides a compact binary encoding for trajectories so
// the paper's first motivation — simplification cuts storage cost — can
// be quantified in actual bytes rather than point counts. The format
// combines coordinate quantization with delta and varint coding:
//
//	header:  magic "TRJ1", point count (uvarint),
//	         precision (uvarint, decimal places), base x/y/t (float64)
//	points:  zigzag-varint deltas of quantized x, y, t
//
// GPS data is extremely delta-friendly (consecutive points are meters and
// seconds apart), so the encoding reaches ~3-6 bytes/point at centimeter
// precision versus 24 bytes/point raw — and composes multiplicatively
// with a 10x simplification.
package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

var magic = [4]byte{'T', 'R', 'J', '1'}

// DefaultPrecision quantizes coordinates to 2 decimal places (centimeters
// for meter units) and timestamps to milliseconds... both use the same
// precision; 2 decimals keeps errors far below GPS noise.
const DefaultPrecision = 2

// Encode writes t to w with the given decimal precision (0..9).
func Encode(w io.Writer, t traj.Trajectory, precision int) error {
	if precision < 0 || precision > 9 {
		return fmt.Errorf("storage: precision %d out of range [0, 9]", precision)
	}
	if len(t) == 0 {
		return fmt.Errorf("storage: empty trajectory")
	}
	scale := math.Pow10(precision)
	buf := make([]byte, 0, 16+10*len(t))
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	buf = binary.AppendUvarint(buf, uint64(precision))
	var f64 [8]byte
	for _, base := range []float64{t[0].X, t[0].Y, t[0].T} {
		binary.LittleEndian.PutUint64(f64[:], math.Float64bits(base))
		buf = append(buf, f64[:]...)
	}
	px, py, pt := quantize(t[0], scale)
	for _, p := range t[1:] {
		x, y, ts := quantize(p, scale)
		buf = binary.AppendVarint(buf, x-px)
		buf = binary.AppendVarint(buf, y-py)
		buf = binary.AppendVarint(buf, ts-pt)
		px, py, pt = x, y, ts
	}
	_, err := w.Write(buf)
	return err
}

func quantize(p geo.Point, scale float64) (x, y, t int64) {
	return int64(math.Round(p.X * scale)),
		int64(math.Round(p.Y * scale)),
		int64(math.Round(p.T * scale))
}

// Decode reads a trajectory written by Encode. Coordinates come back
// quantized to the encoded precision.
func Decode(r io.Reader) (traj.Trajectory, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	br := bytes.NewReader(data)
	var m [4]byte
	for i := range m {
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("storage: magic: %w", err)
		}
		m[i] = b
	}
	if m != magic {
		return nil, fmt.Errorf("storage: bad magic %q", m[:])
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: count: %w", err)
	}
	if n == 0 || n > 1<<27 {
		return nil, fmt.Errorf("storage: implausible point count %d", n)
	}
	precision, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: precision: %w", err)
	}
	if precision > 9 {
		return nil, fmt.Errorf("storage: precision %d out of range", precision)
	}
	scale := math.Pow10(int(precision))
	var bases [3]float64
	var f64 [8]byte
	for i := range bases {
		for j := 0; j < 8; j++ {
			b, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("storage: base: %w", err)
			}
			f64[j] = b
		}
		bases[i] = math.Float64frombits(binary.LittleEndian.Uint64(f64[:]))
		if math.IsNaN(bases[i]) || math.IsInf(bases[i], 0) {
			return nil, fmt.Errorf("storage: non-finite base coordinate")
		}
	}
	// Pre-allocate conservatively: a hostile header can claim any count,
	// so cap the upfront allocation and let append grow from there.
	capHint := n
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make(traj.Trajectory, 0, capHint)
	x, y, t := quantize(geo.Pt(bases[0], bases[1], bases[2]), scale)
	at := func() geo.Point { return geo.Pt(float64(x)/scale, float64(y)/scale, float64(t)/scale) }
	out = append(out, at())
	for i := uint64(1); i < n; i++ {
		dx, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("storage: point %d: %w", i, err)
		}
		dy, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("storage: point %d: %w", i, err)
		}
		dt, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("storage: point %d: %w", i, err)
		}
		x += dx
		y += dy
		t += dt
		out = append(out, at())
	}
	return out, nil
}

// EncodedSize returns the number of bytes Encode would produce.
func EncodedSize(t traj.Trajectory, precision int) (int, error) {
	var c countingWriter
	if err := Encode(&c, t, precision); err != nil {
		return 0, err
	}
	return int(c), nil
}

// RawSize returns the naive storage footprint: 3 float64 per point.
func RawSize(t traj.Trajectory) int { return 24 * len(t) }

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
