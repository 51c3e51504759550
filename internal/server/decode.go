package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
)

// Request bodies are read whole and decoded by one validating scanner
// (DESIGN.md §9.3). It parses the points arrays of the point-carrying
// requests itself, straight into their [][3]float64 fields, and hands
// every other value's bytes to json.Unmarshal, so strings, ints, bound,
// repair and the bodies that carry no points keep encoding/json's
// semantics by construction. What it accepts, rejects and decodes
// matches json.Decoder.Decode on the same body (TestDecodeContract,
// FuzzDecodeBody):
//
//   - only the first value counts; bytes after it are ignored;
//   - keys match case-insensitively under Unicode folding, unknown keys
//     are skipped, and a duplicate key decodes into the storage the
//     earlier value left;
//   - null leaves a destination as it is, except that it empties a slice
//     or a pointer;
//   - [x, y] zeroes t, and elements past the third are skipped;
//   - a number outside float64's range is an error;
//   - a syntax error, or the body ending inside the value, takes
//     precedence over an earlier type error;
//   - nesting deeper than encoding/json's 10,000 levels is an error.

// maxNesting is encoding/json's nesting limit: one level more is a
// syntax error. It also bounds the scanner's recursion.
const maxNesting = 10000

// bodyPrealloc caps the buffer a declared Content-Length reserves before
// any byte arrives. A longer body grows the buffer as it is read, so a
// client pins only as much memory as it sends.
const bodyPrealloc = 4 << 20

// bodyField is one member of a request object: its JSON name and where
// its value goes. The scanner parses *[][3]float64 and
// *[]batchItemRequest destinations itself and hands any other to
// json.Unmarshal.
type bodyField struct {
	name string
	dst  any
}

// bodyObject is a request type whose members the scanner decodes one by
// one, so that it can parse their points itself. Every JSON-tagged field
// is listed (TestBodyFieldsMatchTags).
type bodyObject interface {
	bodyFields() []bodyField
}

// decodeBody reads a JSON request body under the size limit and decodes
// its first value into v, reporting the failure itself: 413 when that
// value does not end within MaxBodyBytes, 400 otherwise. Returns false
// when the request is already answered.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := readJSON(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength, v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	httpError(w, http.StatusBadRequest, codeBadRequest, "bad request body: %v", err)
	return false
}

// readJSON reads body into one buffer sized from contentLength and
// decodes its first value into v. A body of whitespace alone is io.EOF.
// When the value does not end within the bytes read, the read's own
// error, such as *http.MaxBytesError, is the result, or
// io.ErrUnexpectedEOF when the body ended cleanly.
func readJSON(body io.Reader, contentLength int64, v any) error {
	var buf bytes.Buffer
	buf.Grow(int(min(max(contentLength, 0), bodyPrealloc)) + bytes.MinRead)
	_, rerr := buf.ReadFrom(body)
	d := bodyDecoder{buf: buf.Bytes()}
	c := d.peek()
	switch o, ok := v.(bodyObject); {
	case d.err != nil:
		d.err = io.EOF
	case ok:
		d.fields(o.bodyFields())
	default:
		d.unmarshal(v)
	}
	// encoding/json ends a top-level scalar only at the byte after it, so
	// one that reaches the end of a body cut short has not ended.
	if d.err == nil && rerr != nil && d.pos == len(d.buf) && c != '{' && c != '[' {
		d.err = io.ErrUnexpectedEOF
	}
	switch {
	case rerr != nil && (d.err == io.EOF || d.err == io.ErrUnexpectedEOF):
		return rerr
	case d.err != nil:
		return d.err
	}
	return d.typeErr
}

// bodyDecoder is the scanner's cursor over one body. The first syntax
// error, or the body ending inside the value, stops the scan: err keeps
// it, pos moves to the end of the body, peek returns 0 from then on, and
// every step after it does nothing.
type bodyDecoder struct {
	buf     []byte
	pos     int
	depth   int   // containers open at pos
	err     error // what stopped the scan
	typeErr error // the first value that did not fit its destination
}

// fields decodes the object at d.pos into the destinations fs names.
func (d *bodyDecoder) fields(fs []bodyField) {
	if d.nullOr('{', "an object") {
		return
	}
	d.object(func(key []byte) {
		for _, f := range fs {
			if bytes.EqualFold(key, []byte(f.name)) {
				d.field(f.dst)
				return
			}
		}
		d.skip()
	})
}

// field decodes the value at d.pos into dst.
func (d *bodyDecoder) field(dst any) {
	switch dst := dst.(type) {
	case *[][3]float64:
		decodeSlice(d, dst, "points", d.point)
	case *[]batchItemRequest:
		decodeSlice(d, dst, "items", func(it *batchItemRequest) { d.fields(it.bodyFields()) })
	default:
		d.unmarshal(dst)
	}
}

// unmarshal hands the value at d.pos to json.Unmarshal, so that dst
// decodes exactly as encoding/json decodes it.
func (d *bodyDecoder) unmarshal(dst any) {
	d.peek()
	start := d.pos
	d.skip()
	if d.err != nil {
		return
	}
	if err := json.Unmarshal(d.buf[start:d.pos], dst); err != nil && d.typeErr == nil {
		d.typeErr = err
	}
}

// decodeSlice decodes the array at d.pos into dst under encoding/json's
// slice rules. null empties dst. Element i decodes into dst's storage at
// i, even past its length, so a duplicate key decodes into what the
// earlier value left there; storage is grown as append grows it. An
// empty array leaves a fresh empty slice.
func decodeSlice[T any](d *bodyDecoder, dst *[]T, what string, elem func(*T)) {
	if d.peek() == 'n' {
		*dst = nil
	}
	if d.nullOr('[', what) {
		return
	}
	s, n := *dst, 0
	d.array(func(i int) {
		if i == cap(s) {
			var zero T
			s = append(s[:cap(s)], zero)
		}
		s, n = s[:i+1], i+1
		elem(&s[i])
	})
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
}

// point decodes one [x, y, t] array into p: [x, y] zeroes t, and
// elements past the third are skipped. It scans the array as array does,
// without a closure call per coordinate.
func (d *bodyDecoder) point(p *[3]float64) {
	if d.nullOr('[', "a point") || !d.open() {
		return
	}
	n := 0
	if d.peek() == ']' {
		d.close()
	} else {
	elems:
		for d.err == nil {
			if n < len(p) {
				d.float(&p[n])
			} else {
				d.skip()
			}
			n++
			switch d.peek() {
			case ',':
				d.pos++
			case ']':
				d.close()
				break elems
			default:
				d.stop()
			}
		}
	}
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
}

// float decodes the number at d.pos into f; null leaves f as it is. A
// number out of float64's range is a type error and leaves f as it is.
func (d *bodyDecoder) float(f *float64) {
	switch c := d.peek(); {
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		start := d.pos
		num, x := d.number()
		if d.err != nil {
			return
		}
		if v, ok := x.float64(); ok {
			*f = v
			return
		}
		v, err := strconv.ParseFloat(string(num), 64)
		if err == nil {
			*f = v
		} else if d.typeErr == nil {
			d.typeErr = fmt.Errorf("number %s out of range at byte %d", num, start)
		}
	default:
		d.mismatch("a coordinate")
	}
}

// nullOr reports whether the value at d.pos is dealt with: null is
// scanned and left to mean "unchanged", and a value that does not start
// with open is a type error and skipped. Otherwise d.pos is at open.
func (d *bodyDecoder) nullOr(open byte, what string) bool {
	switch d.peek() {
	case open:
		return false
	case 'n':
		d.literal("null")
	default:
		d.mismatch(what)
	}
	return true
}

// mismatch records that the value at d.pos does not fit a destination
// that wants what, then skips the value.
func (d *bodyDecoder) mismatch(what string) {
	if d.err != nil {
		return
	}
	if d.typeErr == nil {
		kind := "number"
		switch d.buf[d.pos] {
		case '{':
			kind = "object"
		case '[':
			kind = "array"
		case '"':
			kind = "string"
		case 't', 'f':
			kind = "bool"
		}
		d.typeErr = fmt.Errorf("cannot unmarshal %s into %s at byte %d", kind, what, d.pos)
	}
	d.skip()
}

// skip validates the value at d.pos and moves past it.
func (d *bodyDecoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.object(func([]byte) { d.skip() })
	case c == '[':
		d.array(func(int) { d.skip() })
	case c == '"':
		d.str()
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	default:
		d.stop()
	}
}

// object scans the object at d.pos, calling member with each key,
// unescaped, and d.pos at the key's value.
func (d *bodyDecoder) object(member func(key []byte)) {
	if !d.open() {
		return
	}
	if d.peek() == '}' {
		d.close()
		return
	}
	for d.err == nil {
		if d.peek() != '"' {
			d.stop()
			return
		}
		key := d.key()
		if d.peek() != ':' {
			d.stop()
			return
		}
		d.pos++
		member(key)
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.close()
			return
		default:
			d.stop()
		}
	}
}

// array scans the array at d.pos, calling elem with each index and d.pos
// at the element.
func (d *bodyDecoder) array(elem func(i int)) {
	if !d.open() {
		return
	}
	if d.peek() == ']' {
		d.close()
		return
	}
	for i := 0; d.err == nil; i++ {
		elem(i)
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.close()
			return
		default:
			d.stop()
		}
	}
}

// open enters the object or array at d.pos, unless that would nest one
// level too deep.
func (d *bodyDecoder) open() bool {
	if d.depth == maxNesting {
		d.fail(fmt.Errorf("nesting exceeds %d levels at byte %d", maxNesting, d.pos))
		return false
	}
	d.depth++
	d.pos++
	return true
}

// close leaves the object or array whose closing byte is at d.pos.
func (d *bodyDecoder) close() {
	d.depth--
	d.pos++
}

// key scans the object key at d.pos and returns it unescaped.
func (d *bodyDecoder) key() []byte {
	start := d.pos
	escaped := d.str()
	switch {
	case d.err != nil:
		return nil
	case !escaped:
		return d.buf[start+1 : d.pos-1]
	}
	var s string
	if err := json.Unmarshal(d.buf[start:d.pos], &s); err != nil {
		d.fail(err)
	}
	return []byte(s)
}

// str scans the string at d.pos and reports whether it holds escapes.
func (d *bodyDecoder) str() (escaped bool) {
	b := d.buf
	for d.pos++; d.pos < len(b); d.pos++ {
		switch c := b[d.pos]; {
		case c == '"':
			d.pos++
			return escaped
		case c == '\\':
			escaped = true
			if d.pos++; d.pos < len(b) && b[d.pos] == 'u' {
				for k := 0; k < 4; k++ {
					if d.pos++; d.pos == len(b) || !isHex(b[d.pos]) {
						d.stop()
						return
					}
				}
			} else if d.pos == len(b) || strings.IndexByte(`"\/bfnrt`, b[d.pos]) < 0 {
				d.stop()
				return
			}
		case c < 0x20:
			d.stop()
			return
		}
	}
	d.stop()
	return
}

func isHex(c byte) bool { return c-'0' <= 9 || (c|0x20)-'a' <= 5 }

// number scans the number at d.pos under JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes
// and, read in the same pass, the decimal they spell.
func (d *bodyDecoder) number() ([]byte, decimal) {
	b, i := d.buf, d.pos
	var x decimal
	if b[i] == '-' {
		x.neg = true
		i++
	}
	start, nd := i, 0 // nd counts the significant digits read into x.mant
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i = x.digits(b, i)
		nd = i - start
	}
	ok := i > start
	if ok && i < len(b) && b[i] == '.' {
		i++
		frac := i
		if x.mant == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		sig := i
		i = x.digits(b, i)
		nd += i - sig
		x.exp, ok = frac-i, i > frac
	}
	x.exact = nd <= 19
	if ok && i < len(b) && b[i]|0x20 == 'e' {
		sign := 1
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		// Exponent digits stop counting once e reaches 10000, as they
		// do in strconv; such an exponent is left to strconv whole.
		e := 0
		for start = i; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		x.exp += sign * e
		x.exact = x.exact && e < 10000
		ok = i > start
	}
	num := b[d.pos:i]
	if d.pos = i; !ok {
		d.stop()
	}
	return num, x
}

// decimal is a JSON number as number reads it: (-1)^neg × mant × 10^exp.
// It is exact when mant holds every significant digit, at most 19, and
// exp every exponent digit.
type decimal struct {
	mant  uint64
	exp   int
	neg   bool
	exact bool
}

// digits reads the run of digits at b[i:] into x.mant, modulo 2^64, and
// returns where the run ends. It takes eight digits a step while eight
// bytes remain and all are digits, then four, then one.
func (x *decimal) digits(b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if v&0xF0F0F0F0F0F0F0F0 != 0x3030303030303030 ||
			(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 != 0x3030303030303030 {
			break
		}
		x.mant = x.mant*1e8 + eightDigits(v)
	}
	if i+4 <= len(b) {
		v := binary.LittleEndian.Uint32(b[i:])
		if v&0xF0F0F0F0 == 0x30303030 && (v+0x06060606)&0xF0F0F0F0 == 0x30303030 {
			x.mant = x.mant*1e4 + fourDigits(v)
			i += 4
		}
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		x.mant = x.mant*10 + uint64(b[i]-'0')
	}
	return i
}

// eightDigits returns the number that the eight ASCII digits in v spell,
// the first in the low byte. A byte is a digit when its high nibble is 3
// and adding 6 to it does not carry out of its low nibble, which is what
// digits tests. Each multiply then merges adjacent lanes, halving their
// count: byte pairs 10·hi+lo, then 16-bit pairs 100·hi+lo, then 32-bit
// pairs 10000·hi+lo. No lane overflows, since 99, 9999 and 99999999 fit.
func eightDigits(v uint64) uint64 {
	v = (v & 0x0F0F0F0F0F0F0F0F) * (10<<8 + 1) >> 8
	v = (v & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (v & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
}

// fourDigits is eightDigits for four ASCII digits.
func fourDigits(v uint32) uint64 {
	v = (v & 0x0F0F0F0F) * (10<<8 + 1) >> 8
	return uint64((v & 0x00FF00FF) * (100<<16 + 1) >> 16)
}

// pow10 and float64pow10 hold the powers of ten that uint64 and float64
// hold exactly.
var (
	pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
	float64pow10 = [23]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
)

// float64 converts x, correctly rounded half to even, when it is exact
// and one of three routes applies (DESIGN.md §9.3): a zero mant is ±0;
// a mant of at most 2^53 with exp in [-22, 22] is one IEEE multiply or
// divide of two exact float64s; and a larger mant with exp in [-19, -1]
// is divided by 10^-exp in integers. It reports false for every other
// decimal, which strconv.ParseFloat converts instead.
func (x decimal) float64() (float64, bool) {
	var f float64
	switch {
	case !x.exact:
		return 0, false
	case x.mant == 0:
	case x.mant <= 1<<53 && 0 <= x.exp && x.exp <= 22:
		f = float64(x.mant) * float64pow10[x.exp]
	case x.mant <= 1<<53 && -22 <= x.exp && x.exp < 0:
		f = float64(x.mant) / float64pow10[-x.exp]
	case -19 <= x.exp && x.exp < 0:
		f = divPow10(x.mant, -x.exp)
	default:
		return 0, false
	}
	if x.neg {
		f = -f
	}
	return f, true
}

// divPow10 returns m/10^k correctly rounded, for 2^53 < m < 2^64 and
// 1 <= k <= 19, which make the result a normal float64. It shifts m left
// by s so that the 128-by-64-bit quotient q of m·2^s by 10^k has 63 or
// 64 bits, then rounds q to 53 bits half to even: the bits cut off are
// the guard bits and a nonzero remainder is the sticky bit.
func divPow10(m uint64, k int) float64 {
	div := pow10[k]
	s := uint(63 - bits.Len64(m) + bits.Len64(div))
	q, r := bits.Div64(m>>(64-s)|m<<(s-64), m<<s, div)
	cut := uint(bits.Len64(q) - 53)
	mant, rest, half := q>>cut, q&(1<<cut-1), uint64(1)<<(cut-1)
	if rest > half || rest == half && (r != 0 || mant&1 == 1) {
		if mant++; mant == 1<<53 {
			mant >>= 1
			cut++
		}
	}
	// mant·2^(cut-s) is 1.f × 2^(52+cut-s) with f the low 52 bits of mant.
	exp := uint64(1023 + 52 + int(cut) - int(s))
	return math.Float64frombits(exp<<52 | mant&(1<<52-1))
}

// literal scans lit, which must be at d.pos.
func (d *bodyDecoder) literal(lit string) {
	for i := 0; i < len(lit); i++ {
		if d.pos == len(d.buf) || d.buf[d.pos] != lit[i] {
			d.stop()
			return
		}
		d.pos++
	}
}

// peek skips whitespace and returns the byte after it. At the end of the
// body it stops the scan; once the scan has stopped it returns 0. A byte
// above ' ' is never whitespace, so peek returns one at once and leaves
// the rest to peekSpace, which keeps it small enough to inline. It need
// not check err: a stopped scan has pos at the end of the body (fail).
func (d *bodyDecoder) peek() (c byte) {
	if d.pos < len(d.buf) {
		if c = d.buf[d.pos]; c > ' ' {
			return c
		}
	}
	return d.peekSpace()
}

func (d *bodyDecoder) peekSpace() byte {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
			continue
		}
		break
	}
	if d.pos == len(d.buf) {
		d.stop()
	}
	if d.err != nil {
		return 0
	}
	return d.buf[d.pos]
}

// stop ends the scan at d.pos, unless it has ended already: the body
// ended too soon, or the byte there cannot come next.
func (d *bodyDecoder) stop() {
	switch {
	case d.err != nil:
	case d.pos >= len(d.buf):
		d.fail(io.ErrUnexpectedEOF)
	default:
		d.fail(fmt.Errorf("invalid character %q at byte %d", rune(d.buf[d.pos]), d.pos))
	}
}

// fail ends the scan with err and moves pos to the end of the body, so
// that peek's fast path never runs again.
func (d *bodyDecoder) fail(err error) {
	d.err, d.pos = err, len(d.buf)
}
