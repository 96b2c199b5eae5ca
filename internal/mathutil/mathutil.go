// Package mathutil provides small integer helpers shared by the LOCAL-model
// algorithms: iterated logarithms, saturating arithmetic and prime search.
//
// All functions are deterministic and allocation-free; several of them are
// used inside running-time bounds, where overflow must saturate rather than
// wrap (a bound that wraps around would silently truncate a transformer's
// round budget).
package mathutil

// MaxRoundBudget is the saturation point for round-budget arithmetic. It is
// far beyond any budget a simulation can execute, yet small enough that sums
// and products of saturated values cannot overflow int64.
const MaxRoundBudget = 1 << 40

// CeilLog2 returns ceil(log2(x)) for x >= 1, and 0 for x <= 1.
func CeilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	n := 0
	v := x - 1
	for v > 0 {
		v >>= 1
		n++
	}
	return n
}

// LogStar returns the iterated logarithm log*(x): the number of times log2
// must be applied to x before the result is at most 2. LogStar(x) is 0 for
// x <= 2.
func LogStar(x int) int {
	n := 0
	for x > 2 {
		x = CeilLog2(x)
		n++
	}
	return n
}

// SatAdd returns a+b, saturating at MaxRoundBudget. Both arguments must be
// non-negative.
func SatAdd(a, b int) int {
	if a >= MaxRoundBudget || b >= MaxRoundBudget || a+b >= MaxRoundBudget {
		return MaxRoundBudget
	}
	return a + b
}

// SatMul returns a*b, saturating at MaxRoundBudget. Both arguments must be
// non-negative.
func SatMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if a >= MaxRoundBudget || b >= MaxRoundBudget || a > MaxRoundBudget/b {
		return MaxRoundBudget
	}
	return a * b
}

// SatPow2 returns 2^i, saturating at MaxRoundBudget; i must be non-negative.
func SatPow2(i int) int {
	if i >= 40 {
		return MaxRoundBudget
	}
	return 1 << uint(i)
}

// SatPow returns base^exp, saturating at MaxRoundBudget. Both arguments must
// be non-negative.
func SatPow(base, exp int) int {
	result := 1
	for ; exp > 0; exp-- {
		result = SatMul(result, base)
		if result >= MaxRoundBudget {
			return MaxRoundBudget
		}
	}
	return result
}

// CeilDiv returns ceil(a/b) for a >= 0, b >= 1.
func CeilDiv(a, b int) int {
	return (a + b - 1) / b
}

// IsPrime reports whether n is prime, by trial division. Intended for the
// small primes (at most a few million) used in Linial-style color reduction.
func IsPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= n (and 2 for n < 2).
func NextPrime(n int) int {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !IsPrime(n) {
		n += 2
	}
	return n
}

// SplitMix64 is the splitmix64 mixing function; it is used to derive
// statistically independent RNG streams from (seed, node-ID) pairs so that
// simulations are reproducible regardless of scheduling.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
