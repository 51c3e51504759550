package nn

import (
	"math"
	"math/big"
	"testing"
)

// TestFastTanhBoundProof proves the certificate's tanh term: for every
// finite x,
//
//	|FastTanh(x) - tanh(x)| + tanhLibError <= fastTanhBound
//
// where tanh is the real function. Together with |math.Tanh(x) -
// tanh(x)| <= tanhLibError this bounds |FastTanh(x) - math.Tanh(x)|, and
// since tanh is 1-Lipschitz it bounds |FastTanh(z) - math.Tanh(y)| by
// fastTanhBound + |z - y|, the step ForwardBounded takes at every tanh.
//
// Both functions are odd (FastTanh exactly so), so x >= 0 suffices.
// [0, 9] is cut at float64 grid points a < b of width h. On each piece,
// with R = P/Q the real rational function FastTanh evaluates in float64,
//
//	|FastTanh(x) - tanh(x)| <= rho + |R(a) - tanh(a)| + h*M
//	|R(a) - tanh(a)|        <= rho + |FastTanh(a) - math.Tanh(a)| + tanhLibError
//
// where rho bounds FastTanh's rounding against R on the piece (Horner's
// rule error bound) and M bounds |R' - sech^2| on it, both from endpoint
// values of monotone terms: for t >= 0 every monomial c*t^k is monotone,
// so each polynomial lies between its positive part at one end minus its
// negative part at the other. On (9, 20) FastTanh clamps to FastTanh(9)
// while tanh rises from tanh(9) to below 1; from 20 on it returns 1,
// within 2/(e^40+1) of tanh.
func TestFastTanhBoundProof(t *testing.T) {
	const pieces = 1 << 20
	h := 9.0 / pieces // exact: 9 * 2^-20
	u := 0x1p-53

	worst, at := 0.0, 0.0
	for k := 0; k < pieces; k++ {
		a, b := float64(k)*h, float64(k+1)*h
		da := math.Abs(FastTanh(a)-math.Tanh(a)) * (1 + 0x1p-52)
		ptil, qa, qb := tanhNumAbs(b), tanhDen(a), tanhDen(b)
		// Horner: fl(p) within 20u*ptil of P, fl(q) within 10u*Q of Q,
		// then one division; |R| <= ptil/Q.
		r := ptil / qa
		rho := (20*u*r+10*u*r)/(1-10*u)*(1+u) + u*r*(1+u)
		e := da + 2*rho + tanhLibError + h*tanhDerivGap(a, b, qa, qb)
		if e > worst {
			worst, at = e, a
		}
	}
	// (9, 20): FastTanh(x) == FastTanh(9), tanh(x) in (tanh(9), 1).
	clamp := math.Max(worst, 1-FastTanh(fastTanhClamp))
	// [20, inf): FastTanh(x) == 1, 1 - tanh(x) <= 2/(e^40+1) < 1e-17.
	bound := math.Max(clamp, 1e-17) + tanhLibError
	t.Logf("proven sup |FastTanh - tanh| + tanhLibError = %.4e (worst piece at x=%.6f); certificate uses %.1e",
		bound, at, float64(fastTanhBound))
	if bound > fastTanhBound {
		t.Fatalf("proven bound %.4e exceeds fastTanhBound %.1e", bound, float64(fastTanhBound))
	}
	if bound > FastTanhMaxAbsError {
		t.Fatalf("proven bound %.4e exceeds the published FastTanhMaxAbsError %.1e", bound, FastTanhMaxAbsError)
	}
}

// tanhNumAbs is sum |A_k| x^k, the absolute-coefficient numerator.
func tanhNumAbs(x float64) float64 {
	x2 := x * x
	return x * (tanhA1 + x2*(tanhA3+x2*(tanhA5+x2*(tanhA7+x2*(-tanhA9+x2*(tanhA11+x2*-tanhA13))))))
}

// tanhDen is Q(x); every coefficient is positive, so it is increasing on
// x >= 0.
func tanhDen(x float64) float64 {
	x2 := x * x
	return tanhB0 + x2*(tanhB2+x2*(tanhB4+x2*tanhB6))
}

// poly is a polynomial in t with coefficients c[k] of t^k, split into
// its positive and negative parts, each nondecreasing on t >= 0.
type poly []float64

func (c poly) parts(t float64) (pos, neg float64) {
	tk := 1.0
	for _, ck := range c {
		if ck > 0 {
			pos += ck * tk
		} else {
			neg -= ck * tk
		}
		tk *= t
	}
	return pos, neg
}

// on returns an interval containing c(t) for every t in [a, b], a >= 0.
func (c poly) on(a, b float64) (lo, hi float64) {
	pa, na := c.parts(a)
	pb, nb := c.parts(b)
	return pa - nb, pb - na
}

var (
	tanhP  = poly{0, tanhA1, 0, tanhA3, 0, tanhA5, 0, tanhA7, 0, tanhA9, 0, tanhA11, 0, tanhA13}
	tanhDP = poly{tanhA1, 0, 3 * tanhA3, 0, 5 * tanhA5, 0, 7 * tanhA7, 0, 9 * tanhA9, 0, 11 * tanhA11, 0, 13 * tanhA13}
	tanhDQ = poly{0, 2 * tanhB2, 0, 4 * tanhB4, 0, 6 * tanhB6}
)

// tanhDerivGap bounds |R'(t) - sech^2(t)| over t in [a, b] by interval
// arithmetic: R' = (P'Q - PQ')/Q^2 with Q in [qa, qb] and Q' >= 0, and
// sech^2 = 1 - tanh^2 decreasing on t >= 0. The 1e-12 covers the float64
// rounding of these interval endpoints with orders of magnitude to spare.
func tanhDerivGap(a, b, qa, qb float64) float64 {
	plo, phi := tanhP.on(a, b)
	dplo, dphi := tanhDP.on(a, b)
	dqlo, dqhi := tanhDQ.on(a, b)
	n1lo, n1hi := mulInterval(dplo, dphi, qa, qb)
	n2lo, n2hi := mulInterval(plo, phi, dqlo, dqhi)
	nlo, nhi := n1lo-n2hi, n1hi-n2lo
	q2lo, q2hi := qa*qa, qb*qb
	rlo := math.Min(nlo/q2lo, nlo/q2hi)
	rhi := math.Max(nhi/q2lo, nhi/q2hi)
	ta, tb := math.Tanh(a), math.Tanh(b)
	slo := 1 - (tb+tanhLibError)*(tb+tanhLibError)
	shi := 1 - math.Max(ta-tanhLibError, 0)*math.Max(ta-tanhLibError, 0)
	return math.Max(math.Abs(rlo-shi), math.Abs(rhi-slo)) + 1e-12
}

// mulInterval returns the product interval of [alo, ahi] and [blo, bhi].
func mulInterval(alo, ahi, blo, bhi float64) (lo, hi float64) {
	p := [4]float64{alo * blo, alo * bhi, ahi * blo, ahi * bhi}
	lo, hi = p[0], p[0]
	for _, v := range p[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// TestTanhLibError holds math.Tanh within tanhLibError of a 256-bit
// tanh at sample points across [0, 20] and at tiny magnitudes. It is the
// evidence behind the constant; the argument for it is in its doc.
func TestTanhLibError(t *testing.T) {
	var xs []float64
	for i := 0; i <= 2000; i++ {
		xs = append(xs, 20*float64(i)/2000)
	}
	for e := -300; e <= 0; e += 3 {
		xs = append(xs, math.Pow(10, float64(e)))
	}
	worst := 0.0
	for _, x := range xs {
		want, _ := bigTanh(x).Float64()
		worst = math.Max(worst, math.Abs(math.Tanh(x)-want))
	}
	t.Logf("max |math.Tanh - tanh| = %.3e over %d samples (tanhLibError %.3e)", worst, len(xs), tanhLibError)
	if worst > tanhLibError {
		t.Fatalf("math.Tanh error %.3e exceeds tanhLibError %.3e", worst, tanhLibError)
	}
}

// bigTanh is tanh(x) = m/(m+2) with m = expm1(2x) summed as its Taylor
// series at 256 bits: every term is positive, so nothing cancels.
func bigTanh(x float64) *big.Float {
	const prec = 256
	y := new(big.Float).SetPrec(prec).SetFloat64(2 * x)
	m := new(big.Float).SetPrec(prec)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	eps := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(1), -300)
	for n := int64(1); term.Sign() != 0; n++ {
		term.Mul(term, y)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(n))
		m.Add(m, term)
		if term.Cmp(new(big.Float).Mul(m, eps)) < 0 {
			break
		}
	}
	den := new(big.Float).SetPrec(prec).Add(m, new(big.Float).SetPrec(prec).SetInt64(2))
	return new(big.Float).SetPrec(prec).Quo(m, den)
}
