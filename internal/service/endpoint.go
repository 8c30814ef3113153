package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// endpoint is one declarative POST route: the five stages every
// evaluation endpoint shares, each mapped onto a fixed HTTP status.
// handle() turns it into the full pipeline
//
//	decode+defaults+validate (400) → limits (422) → format (400) →
//	canonical key (400) → memo+singleflight → run (422, or 499 when
//	the client hung up) → encode JSON|CSV → respond+cache
//
// so registering the next endpoint means filling in this struct, not
// re-writing the pipeline.
type endpoint[Req, Res any] struct {
	// name is the route, e.g. "/v1/sweep"; it namespaces the cache key
	// and the per-endpoint metrics.
	name string
	// decode parses, defaults and validates the request body.
	// Errors report as 400.
	decode func(body []byte) (Req, error)
	// limits bounds untrusted payloads; nil means unlimited.
	// Errors report as 422.
	limits func(req Req) error
	// key canonicalizes the request into a deterministic memoization
	// key: two requests differing only in field order, whitespace or
	// spelled-out defaults share one entry. Errors report as 400.
	key func(req Req) ([]byte, error)
	// run evaluates the request; it sees the request context, so a
	// disconnected client cancels the evaluation (499). Other errors
	// report as 422.
	run func(ctx context.Context, req Req) (Res, error)
	// encodeJSON shapes the JSON response body.
	encodeJSON func(res Res) any
	// encodeCSV writes the CSV form; nil marks a JSON-only endpoint,
	// which ignores format negotiation entirely.
	encodeCSV func(w io.Writer, res Res) error
}

// handle builds the HTTP handler for an endpoint. Responses are
// memoized in the server's byte-bounded LRU keyed by
// (route, format, canonical request); the memo's singleflight makes N
// concurrent identical requests share exactly one evaluation — the
// laggards wait for the first run instead of repeating it.
func handle[Req, Res any](s *Server, ep endpoint[Req, Res]) http.HandlerFunc {
	stats := s.metrics.endpoint(ep.name)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		req, err := ep.decode(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if ep.limits != nil {
			if err := ep.limits(req); err != nil {
				httpError(w, http.StatusUnprocessableEntity, err.Error())
				return
			}
		}
		format := "json"
		if ep.encodeCSV != nil {
			if format, err = requestFormat(r); err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
		}
		canon, err := ep.key(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}

		key := ep.name + "|" + format + "|" + string(canon)
		ri := reqInfoFrom(r.Context())
		if ri != nil {
			ri.key = keyHash(key)
		}
		resp, shared, err := s.cache.Do(r.Context(), key, func(ctx context.Context) (cachedResponse, error) {
			stats.evaluations.Add(1)
			res, err := ep.run(ctx, req)
			if err != nil {
				return cachedResponse{}, err
			}
			if format == "csv" {
				var buf bytes.Buffer
				if err := ep.encodeCSV(&buf, res); err != nil {
					return cachedResponse{}, err
				}
				return cachedResponse{contentType: "text/csv; charset=utf-8", body: buf.Bytes()}, nil
			}
			return cachedResponse{contentType: "application/json", body: mustJSON(ep.encodeJSON(res))}, nil
		})
		switch {
		case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
			// Client went away; nobody is reading, don't poison counters
			// with a 5xx nor cache a partial result.
			httpError(w, statusClientClosedRequest, "request cancelled")
			return
		case err != nil:
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}

		cacheState := "miss"
		if shared {
			s.metrics.cacheHits.Add(1)
			cacheState = "hit"
		} else {
			s.metrics.cacheMisses.Add(1)
		}
		if ri != nil {
			ri.cache = cacheState
		}
		w.Header().Set("Content-Type", resp.contentType)
		w.Header().Set("X-Cache", cacheState)
		_, _ = w.Write(resp.body) // a failed write means the client left
	}
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response was written.
const statusClientClosedRequest = 499

// requestFormat picks the response encoding: ?format=csv|json wins,
// otherwise an Accept: text/csv header, otherwise JSON.
func requestFormat(r *http.Request) (string, error) {
	switch f := r.URL.Query().Get("format"); f {
	case "csv", "json":
		return f, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want json or csv)", f)
	}
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/csv") {
		return "csv", nil
	}
	return "json", nil
}
