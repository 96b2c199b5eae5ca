package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/sweep"
)

var errBoom = errors.New("boom")

func mkResults() sweep.Results {
	ok := &local.Result{Rounds: 1}
	canceled := fmt.Errorf("%w: %w: job never started", sweep.ErrCanceled, context.Canceled)
	return sweep.Results{
		{Res: ok},
		{Err: canceled},
		{Err: errBoom},
		{Res: ok},
	}
}

func TestFirstIncomplete(t *testing.T) {
	rs := mkResults()
	if got := rs.FirstIncomplete(); got != 1 {
		t.Fatalf("FirstIncomplete = %d, want 1", got)
	}
	if got := (sweep.Results{{Res: &local.Result{}}}).FirstIncomplete(); got != -1 {
		t.Fatalf("complete batch: FirstIncomplete = %d, want -1", got)
	}
	// A zero-valued slot (never started, never stamped) is incomplete too.
	if got := (make(sweep.Results, 3)).FirstIncomplete(); got != 0 {
		t.Fatalf("zero slots: FirstIncomplete = %d, want 0", got)
	}
}

func TestFirstErrPrefersFailureOverCancellation(t *testing.T) {
	rs := mkResults()
	// Slot 1 is canceled, slot 2 genuinely failed: the failure wins even
	// though the cancellation comes first in job order.
	if err := rs.FirstErr(); !errors.Is(err, errBoom) {
		t.Fatalf("FirstErr = %v, want errBoom", err)
	}
	// All-canceled batches still report the cancellation.
	onlyCanceled := sweep.Results{rs[0], rs[1], rs[3]}
	if err := onlyCanceled.FirstErr(); !errors.Is(err, sweep.ErrCanceled) {
		t.Fatalf("FirstErr = %v, want ErrCanceled", err)
	}
	if err := (sweep.Results{rs[0], rs[3]}).FirstErr(); err != nil {
		t.Fatalf("clean batch: FirstErr = %v", err)
	}
}
