package linial

import (
	"fmt"
	"reflect"
	"testing"
)

// TestScheduleMemoMatchesDerivation compares the memoized schedule with a
// fresh derivation across a table of guess pairs, including the clamps
// (Δ̃ < 0, m̃ < 1, m̃ > maxPalette). Every pair runs in two parallel
// subtests, so under -race two goroutines hit each fresh key at once.
func TestScheduleMemoMatchesDerivation(t *testing.T) {
	cases := []struct {
		deltaHat int
		mHat     int64
	}{
		{-5, 1000}, {-1, -1}, {0, 0}, {0, 1}, {1, -7}, {3, 1},
		{2, 40}, {7, 999}, {16, 1 << 20}, {33, 1 << 31}, {100, 1 << 45},
		{255, maxPalette}, {9, maxPalette + 1}, {9, 1<<63 - 1}, {1 << 20, 1 << 40},
	}
	for _, tc := range cases {
		for i := 0; i < 2; i++ {
			t.Run(fmt.Sprintf("d=%d/m=%d/%d", tc.deltaHat, tc.mHat, i), func(t *testing.T) {
				t.Parallel()
				wantSteps, wantPalette := deriveSchedule(clampGuesses(tc.deltaHat, tc.mHat))
				steps, palette := Schedule(tc.deltaHat, tc.mHat)
				if !reflect.DeepEqual(steps, wantSteps) || palette != wantPalette {
					t.Fatalf("Schedule = %v, %d; derivation %v, %d", steps, palette, wantSteps, wantPalette)
				}
				if got, want := RoundsBound(tc.deltaHat, tc.mHat), len(wantSteps)+1; got != want {
					t.Errorf("RoundsBound = %d, want %d", got, want)
				}
				if got := PaletteSize(tc.deltaHat, tc.mHat); got != wantPalette {
					t.Errorf("PaletteSize = %d, want %d", got, wantPalette)
				}
				again, _ := Schedule(tc.deltaHat, tc.mHat)
				if len(again) > 0 && &again[0] != &steps[0] {
					t.Error("a repeated call returned a fresh schedule instead of the memoized one")
				}
			})
		}
	}
}

// TestScheduleMemoSharesClampedKeys checks that guesses outside the domain
// share the entry of the pair they clamp to.
func TestScheduleMemoSharesClampedKeys(t *testing.T) {
	a, _ := Schedule(-3, maxPalette+5)
	b, _ := Schedule(0, maxPalette)
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("clamped guesses did not share the memoized schedule")
	}
}
