// Package floatcmp fixtures.
package floatcmp

import "math"

// --- negative: infinity sentinels are exact ---

var infeasible = math.Inf(1)

func Feasible(v float64) bool {
	return v != infeasible
}

// positive: a math.Inf call compared in place is no registered sentinel.

func Unset(v float64) bool {
	return v == math.Inf(-1) // want `floating-point == comparison`
}

// --- negative: comparison against exact constant zero ---

type Normal struct{ Mu, Sigma float64 }

func (n Normal) IsZero() bool {
	return n.Mu == 0 && n.Sigma == 0
}

func Deterministic(sigma float64) bool {
	return 0 == sigma
}

// --- negative: the approved helper may compare exactly ---

func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < tol
}

// --- negative: ordered comparisons are fine ---

func Saturated(occ float64) bool {
	return occ >= 1.0
}

// --- negative: integer equality is fine ---

func SameCount(a, b int) bool {
	return a == b
}

// --- positive: exact equality between computed floats ---

func BadEq(a, b float64) bool {
	return a == b // want `floating-point == comparison`
}

func BadNeq(a, b float64) bool {
	return a != b // want `floating-point != comparison`
}

// --- positive: nonzero constants round too ---

func BadConst(occ float64) bool {
	return occ == 1.0 // want `floating-point == comparison`
}

// --- negative: annotated with a justification ---

func CheckedBitwise(a, b float64) bool {
	//lint:ignore floatcmp comparing a stored value against its own round-trip
	return a == b
}
