package fabric

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

// outcomeKind classifies one attempt for the retry machinery.
type outcomeKind int

const (
	outcomeOK outcomeKind = iota
	// outcomeRetriable: transport error, timeout, 429/5xx, or a response
	// that failed decoding or document validation (corruption, truncation).
	outcomeRetriable
	// outcomeTerminal: the replica deterministically refused the request
	// (400/413/422) — every replica would, so retrying is pointless.
	outcomeTerminal
	// outcomeCanceled: the attempt's context fired. The scheduler decides
	// whether that was the sweep dying (abort) or a local deadline (retry).
	outcomeCanceled
)

// maxErrBodyBytes bounds how much of an error response is read for the
// error message; maxDocBodyBytes bounds a shard document.
const (
	maxErrBodyBytes = 4 << 10
	maxDocBodyBytes = 64 << 20
)

// call issues one shard request and classifies the outcome. actx carries
// the per-attempt timeout; sweepCtx distinguishes "this attempt timed out"
// (retriable) from "the whole sweep is over" (canceled).
func (c *Coordinator) call(actx, sweepCtx context.Context, base string, st *specState, sh scenario.Shard) (*serve.ShardDoc, outcomeKind, time.Duration, error) {
	url := fmt.Sprintf("%s/run?seed=%d&shard=%s", base, c.cfg.Seed, sh)
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(st.body))
	if err != nil {
		return nil, outcomeTerminal, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if sweepCtx.Err() != nil {
			return nil, outcomeCanceled, 0, err
		}
		return nil, outcomeRetriable, 0, err
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxDocBodyBytes))
		if err != nil {
			if sweepCtx.Err() != nil {
				return nil, outcomeCanceled, 0, err
			}
			return nil, outcomeRetriable, 0, fmt.Errorf("reading shard document: %w", err)
		}
		var doc serve.ShardDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, outcomeRetriable, 0, fmt.Errorf("decoding shard document: %w", err)
		}
		if err := doc.Validate(st.spec.Name, c.cfg.Seed, sh, st.plan.Jobs()); err != nil {
			return nil, outcomeRetriable, 0, err
		}
		return &doc, outcomeOK, 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// Alive but saturated: back off at least as long as the replica
		// asked for, and do not count it as hard down more than any other
		// failure would.
		var retryAfter time.Duration
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, outcomeRetriable, retryAfter, fmt.Errorf("replica busy: %s", readErrBody(resp.Body))
	case resp.StatusCode == http.StatusBadRequest,
		resp.StatusCode == http.StatusRequestEntityTooLarge,
		resp.StatusCode == http.StatusUnprocessableEntity:
		return nil, outcomeTerminal, 0, fmt.Errorf("replica answered %d: %s", resp.StatusCode, readErrBody(resp.Body))
	default:
		return nil, outcomeRetriable, 0, fmt.Errorf("replica answered %d: %s", resp.StatusCode, readErrBody(resp.Body))
	}
}

func readErrBody(body io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(body, maxErrBodyBytes))
	return strings.TrimSpace(string(b))
}

// probe asks an open replica's /healthz whether it is worth a trial request
// again. Probe timeouts are short and fixed: a probe is about liveness, not
// capacity.
func (c *Coordinator) probe(ctx context.Context, base string) bool {
	pctx, cancel := context.WithTimeout(ctx, min(c.cfg.Timeout, 2*time.Second))
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrBodyBytes))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// jitter maps (seed, key, attempt) to a fraction in [0, 1) through FNV-1a
// plus a splitmix64 finalizer. Deterministic on purpose: a replayed sweep
// under the same fault schedule issues the same backoff schedule, which is
// what lets the chaos tests assert exact retry behaviour.
func jitter(seed int64, key string, attempt int) float64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(attempt))
	h.Write(b[:])
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
