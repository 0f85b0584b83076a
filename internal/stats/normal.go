// Package stats provides the probability substrate for the SVC model:
// standard-normal functions, the min-of-two-normals moments used by the
// paper's Lemma 1, samplers, and empirical distribution helpers.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidProbability is returned by PhiInvE when its argument lies
// outside the open interval (0, 1).
var ErrInvalidProbability = errors.New("stats: probability must be in (0, 1)")

// invSqrt2Pi is 1/sqrt(2*pi), the normalizing constant of the standard
// normal density.
const invSqrt2Pi = 0.3989422804014327

// Phi returns the standard normal cumulative distribution function at x.
func Phi(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Pdf returns the standard normal probability density function at x.
func Pdf(x float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*x*x)
}

// PhiInv returns the inverse of the standard normal CDF (the quantile
// function) at p. It panics if p is outside (0, 1); use PhiInvE when the
// argument is not statically known to be valid.
func PhiInv(p float64) float64 {
	x, err := PhiInvE(p)
	if err != nil {
		panic(fmt.Sprintf("stats: PhiInv(%v): %v", p, err))
	}
	return x
}

// PhiInvE returns the inverse of the standard normal CDF at p, or
// ErrInvalidProbability if p is not in (0, 1).
//
// The initial estimate uses Acklam's rational approximation (relative error
// below 1.15e-9 over the full domain) and is then polished with one step of
// Halley's method, giving accuracy near machine precision.
func PhiInvE(p float64) (float64, error) {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("%w: got %v", ErrInvalidProbability, p)
	}
	x := acklam(p)
	// One Halley iteration: x <- x - u/(1 + x*u/2), u = (Phi(x)-p)/pdf(x).
	e := Phi(x) - p
	u := e / Pdf(x)
	x -= u / (1 + x*u/2)
	return x, nil
}

// acklam computes Peter Acklam's rational approximation to the normal
// quantile function.
func acklam(p float64) float64 {
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var (
		a = [6]float64{
			-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00,
		}
		b = [5]float64{
			-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01,
		}
		c = [6]float64{
			-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00,
		}
		d = [4]float64{
			7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00,
		}
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// Normal is a normal distribution parameterized by its mean and standard
// deviation. Sigma == 0 denotes the degenerate (point-mass) distribution,
// which the SVC model uses to express deterministic bandwidth demands.
// The tags are a per-VM demand's form in an exported manager state and in
// a legacy log record (core.JobState.Hetero).
type Normal struct {
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
}

// Var returns the variance of the distribution.
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// CDF returns Pr(X <= x) for X distributed as n.
func (n Normal) CDF(x float64) float64 {
	if n.Sigma == 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return Phi((x - n.Mu) / n.Sigma)
}

// Quantile returns the p-quantile of the distribution. It panics if p is
// outside (0, 1) and Sigma > 0; a degenerate distribution returns Mu for
// every p.
func (n Normal) Quantile(p float64) float64 {
	if n.Sigma == 0 {
		return n.Mu
	}
	return n.Mu + n.Sigma*PhiInv(p)
}

// String implements fmt.Stringer.
func (n Normal) String() string {
	return fmt.Sprintf("N(%.4g, %.4g^2)", n.Mu, n.Sigma)
}

// Sum returns the distribution of the sum of k independent copies of n,
// i.e. Normal{k*Mu, sqrt(k)*Sigma}. k must be non-negative.
func (n Normal) Sum(k int) Normal {
	if k < 0 {
		panic(fmt.Sprintf("stats: Normal.Sum: negative count %d", k))
	}
	return Normal{Mu: float64(k) * n.Mu, Sigma: math.Sqrt(float64(k)) * n.Sigma}
}

// Add returns the distribution of the sum of independent variables with
// distributions n and m.
func (n Normal) Add(m Normal) Normal {
	return Normal{Mu: n.Mu + m.Mu, Sigma: math.Sqrt(n.Var() + m.Var())}
}

// MinOfNormals returns the mean and variance of min(X1, X2) for independent
// X1 ~ n1 and X2 ~ n2, following Clark's exact moment formulas (the paper's
// Lemma 1):
//
//	E[X]   = mu1*Phi(alpha) + mu2*Phi(-alpha) - theta*pdf(alpha)
//	E[X^2] = (sigma1^2+mu1^2)*Phi(alpha) + (sigma2^2+mu2^2)*Phi(-alpha)
//	         - (mu1+mu2)*theta*pdf(alpha)
//
// with theta = sqrt(sigma1^2 + sigma2^2) and alpha = (mu2 - mu1)/theta.
// The result of min(X1, X2) is itself not normal; the SVC framework
// approximates it by the normal with matched first and second moments, which
// is what this function returns. Degenerate inputs (theta == 0) reduce to
// the exact min of two constants.
func MinOfNormals(n1, n2 Normal) Normal {
	theta := math.Sqrt(n1.Var() + n2.Var())
	if theta == 0 {
		return Normal{Mu: math.Min(n1.Mu, n2.Mu)}
	}
	alpha := (n2.Mu - n1.Mu) / theta
	cdfA, cdfNegA, pdfA := Phi(alpha), Phi(-alpha), Pdf(alpha)
	mean := n1.Mu*cdfA + n2.Mu*cdfNegA - theta*pdfA
	second := (n1.Var()+n1.Mu*n1.Mu)*cdfA +
		(n2.Var()+n2.Mu*n2.Mu)*cdfNegA -
		(n1.Mu+n2.Mu)*theta*pdfA
	variance := second - mean*mean
	if variance < 0 {
		// Guard against floating-point cancellation when the two
		// distributions are nearly disjoint and the true variance of the
		// min approaches one of the inputs'.
		variance = 0
	}
	return Normal{Mu: mean, Sigma: math.Sqrt(variance)}
}
