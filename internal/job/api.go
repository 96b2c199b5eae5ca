package job

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"

	"github.com/unilocal/unilocal/internal/scenario"
)

// API is the HTTP surface over a Manager. Mount it wherever the process
// serves — cmd/localserved mounts it at /jobs — it routes:
//
//	POST   /jobs              submit (body: scenario spec; query: seed)
//	GET    /jobs              list all jobs + manager metrics
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/events  SSE progress stream
//	GET    /jobs/{id}/result  stored document (query: format=md|json)
//	DELETE /jobs/{id}         cancel
type API struct {
	m        *Manager
	maxBody  int64
	draining func() bool
	mux      *http.ServeMux
}

// NewAPI wraps a Manager. maxBody caps a submission body in bytes; the
// surrounding server passes its own /run bound, so both endpoints refuse the
// same sizes. draining, when non-nil, additionally refuses submissions while
// the surrounding server drains (the manager has its own flag, but the HTTP
// layer should refuse before touching the spool).
func NewAPI(m *Manager, maxBody int64, draining func() bool) *API {
	a := &API{m: m, maxBody: maxBody, draining: draining}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", a.handleSubmit)
	mux.HandleFunc("GET /jobs", a.handleList)
	mux.HandleFunc("GET /jobs/{id}", a.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", a.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result", a.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", a.handleCancel)
	a.mux = mux
	return a
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// clientOf derives the quota identity of a request: the X-Client header when
// present (trusted deployments put an authenticated principal there), else
// the peer host, so NATed clients share fate with their gateway rather than
// minting fresh identities per connection.
func clientOf(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// handleSubmit is POST /jobs: body is one scenario.Spec (the same strict
// schema as POST /run), query parameter seed shifts the seed grid. A new
// job answers 202 with its status; a duplicate coalesces onto the existing
// job and answers 200 with that job's current status.
func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if (a.draining != nil && a.draining()) || a.m.Draining() {
		jobError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	seed := int64(1)
	if v := r.URL.Query().Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			jobError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
		seed = n
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, a.maxBody+1))
	if err != nil {
		jobError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > a.maxBody {
		jobError(w, http.StatusRequestEntityTooLarge, "body over %d bytes", a.maxBody)
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		jobError(w, http.StatusBadRequest, "bad scenario: %v", err)
		return
	}

	st, coalesced, err := a.m.Submit(spec, seed, clientOf(r))
	if err != nil {
		var qe *QuotaError
		switch {
		case errors.As(err, &qe):
			w.Header().Set("Retry-After", strconv.Itoa(qe.RetryAfter))
			jobError(w, http.StatusTooManyRequests, "%s", qe.Reason)
		case errors.Is(err, ErrDraining):
			jobError(w, http.StatusServiceUnavailable, "draining")
		case errors.Is(err, ErrInvalid):
			jobError(w, http.StatusBadRequest, "%v", err)
		default:
			jobError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	status := http.StatusAccepted
	if coalesced {
		status = http.StatusOK
	}
	writeJSON(w, status, struct {
		Status
		Coalesced bool `json:"coalesced"`
	}{st, coalesced})
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := a.m.Status(r.PathValue("id"))
	if err != nil {
		jobError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := a.m.Cancel(r.PathValue("id"))
	if err != nil {
		jobError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *API) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs    []Status `json:"jobs"`
		Metrics Metrics  `json:"metrics"`
	}{a.m.List(), a.m.Snapshot()})
}

// handleResult is GET /jobs/{id}/result?format=md|json. A job that is not
// done answers 409 with its status document, so pollers distinguish "not
// yet" from "never submitted" without parsing error strings.
func (a *API) handleResult(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "md"
	}
	var ext, ct string
	switch format {
	case "md":
		ext, ct = ".md", "text/markdown; charset=utf-8"
	case "json":
		ext, ct = ".json", "application/json"
	default:
		jobError(w, http.StatusBadRequest, "bad format %q (md or json)", format)
		return
	}
	body, st, err := a.m.Result(r.PathValue("id"), ext)
	if errors.Is(err, ErrNotFound) {
		jobError(w, http.StatusNotFound, "%v", err)
		return
	}
	if err != nil {
		jobError(w, http.StatusInternalServerError, "reading result: %v", err)
		return
	}
	if body == nil {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.Write(body)
}

// handleEvents is GET /jobs/{id}/events: a Server-Sent Events stream of the
// job's progress. The hub's buffered window replays first (a subscriber that
// connects late still sees recent history), then live events follow until a
// terminal event — done, failed, canceled, or drained when the process shuts
// down with the job unfinished — ends the stream.
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	h, err := a.m.Events(r.PathValue("id"))
	if err != nil {
		jobError(w, http.StatusNotFound, "%v", err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		jobError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	cursor := 0
	for {
		evs, next, done := h.nextEvents(r.Context(), cursor)
		cursor = next
		for i := range evs {
			data, err := json.Marshal(&evs[i])
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", evs[i].Seq, evs[i].Type, data)
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if done {
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		jobError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func jobError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf("localserved: jobs: "+format, args...), status)
}
