package mathutil

import (
	"testing"
	"testing/quick"
)

func TestCeilLog2(t *testing.T) {
	tests := []struct {
		in, want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1023, 10}, {1024, 10}, {1025, 11}, {1 << 20, 20},
	}
	for _, tt := range tests {
		if got := CeilLog2(tt.in); got != tt.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestLogStar(t *testing.T) {
	tests := []struct {
		in, want int
	}{
		{1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}, {16, 2}, {17, 3}, {65536, 3}, {65537, 4}, {1 << 62, 4},
	}
	for _, tt := range tests {
		if got := LogStar(tt.in); got != tt.want {
			t.Errorf("LogStar(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestCeilLog2Property(t *testing.T) {
	f := func(x uint16) bool {
		n := int(x) + 1
		l := CeilLog2(n)
		// 2^l >= n and (l == 0 or 2^(l-1) < n).
		if SatPow2(l) < n {
			return false
		}
		if l > 0 && SatPow2(l-1) >= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if got := SatAdd(MaxRoundBudget, 1); got != MaxRoundBudget {
		t.Errorf("SatAdd saturation = %d", got)
	}
	if got := SatMul(MaxRoundBudget/2, 4); got != MaxRoundBudget {
		t.Errorf("SatMul saturation = %d", got)
	}
	if got := SatMul(3, 7); got != 21 {
		t.Errorf("SatMul(3,7) = %d", got)
	}
	if got := SatAdd(3, 7); got != 10 {
		t.Errorf("SatAdd(3,7) = %d", got)
	}
	if got := SatPow2(3); got != 8 {
		t.Errorf("SatPow2(3) = %d", got)
	}
	if got := SatPow2(63); got != MaxRoundBudget {
		t.Errorf("SatPow2(63) = %d", got)
	}
	if got := SatPow(3, 4); got != 81 {
		t.Errorf("SatPow(3,4) = %d", got)
	}
	if got := SatPow(2, 100); got != MaxRoundBudget {
		t.Errorf("SatPow(2,100) = %d", got)
	}
	if got := SatPow(10, 0); got != 1 {
		t.Errorf("SatPow(10,0) = %d", got)
	}
}

func TestCeilDiv(t *testing.T) {
	tests := []struct {
		a, b, want int
	}{
		{0, 3, 0}, {1, 3, 1}, {3, 3, 1}, {4, 3, 2}, {10, 5, 2}, {11, 5, 3},
	}
	for _, tt := range tests {
		if got := CeilDiv(tt.a, tt.b); got != tt.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 5: true, 7: true, 11: true, 13: true, 97: true, 7919: true}
	for n := -5; n <= 100; n++ {
		want := primes[n]
		if n > 13 && n <= 100 {
			want = isPrimeSlow(n)
		}
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func isPrimeSlow(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d < n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

func TestNextPrime(t *testing.T) {
	tests := []struct {
		in, want int
	}{
		{-10, 2}, {0, 2}, {2, 2}, {3, 3}, {4, 5}, {8, 11}, {14, 17}, {7907, 7907}, {7908, 7919},
	}
	for _, tt := range tests {
		if got := NextPrime(tt.in); got != tt.want {
			t.Errorf("NextPrime(%d) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestNextPrimeProperty(t *testing.T) {
	f := func(x uint16) bool {
		n := int(x)
		p := NextPrime(n)
		if p < n && n >= 2 {
			return false
		}
		if !IsPrime(p) {
			return false
		}
		// No prime strictly between n and p.
		for q := max(n, 2); q < p; q++ {
			if IsPrime(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool, 1000)
	for i := uint64(0); i < 1000; i++ {
		h := SplitMix64(i)
		if seen[h] {
			t.Fatalf("SplitMix64 collision at %d", i)
		}
		seen[h] = true
	}
}
