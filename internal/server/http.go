package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"github.com/stamp-go/stamp/internal/apps/vacation"
)

// apiRequest is the JSON body of the POST operation endpoints.
type apiRequest struct {
	Customer int               `json:"customer,omitempty"`
	Items    []vacation.Item   `json:"items,omitempty"`
	Updates  []vacation.Update `json:"updates,omitempty"`
}

// apiResponse is the JSON reply of the POST operation endpoints.
type apiResponse struct {
	Op        string `json:"op"`
	Value     uint64 `json:"value,omitempty"`
	Torn      uint64 `json:"torn,omitempty"`
	LatencyNs int64  `json:"latency_ns"`
	Error     string `json:"error,omitempty"`
}

// Handler exposes the server over HTTP with JSON bodies:
//
//	POST /reserve  {"customer": 7, "items": [{"Typ":0,"ID":12}, ...]}
//	POST /cancel   {"customer": 7}
//	POST /update   {"updates": [{"Typ":1,"ID":3,"Add":true,"Num":2,"Price":90}]}
//	POST /query    {"items": [{"Typ":2,"ID":5}, ...]}
//	GET  /stats    live Gauges (always safe; server-side atomics only)
//	GET  /healthz  200 while serving, 500 once the pool is halted
//
// A malformed body or a Typ outside the reservation tables maps to 400.
// Admission rejections, deadline misses, and arena-exhaustion failures
// (retry budget spent) map to 503 Service Unavailable with a Retry-After
// hint (shed load, retry after the epoch swap or queue drain completes); a
// halted pool maps to 500 on every endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	op := func(kind OpKind) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			var body apiRequest
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
				return
			}
			resp := s.Do(&Request{
				Op:       kind,
				Customer: body.Customer,
				Items:    body.Items,
				Updates:  body.Updates,
			})
			out := apiResponse{
				Op: kind.String(), Value: resp.Value, Torn: resp.Torn,
				LatencyNs: int64(resp.Latency),
			}
			status := http.StatusOK
			if resp.Err != nil {
				out.Error = resp.Err.Error()
				switch {
				case errors.Is(resp.Err, ErrBadRequest):
					status = http.StatusBadRequest
				case errors.Is(resp.Err, ErrQueueFull),
					errors.Is(resp.Err, ErrDeadline),
					errors.Is(resp.Err, ErrRetriesExhausted),
					errors.Is(resp.Err, ErrArenaFull):
					// Overload, not breakage: shed and invite a retry after
					// the epoch swap (or queue drain) completes.
					status = http.StatusServiceUnavailable
					w.Header().Set("Retry-After", "1")
				default:
					status = http.StatusInternalServerError
				}
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(out)
		}
	}
	mux.Handle("/reserve", op(OpReserve))
	mux.Handle("/cancel", op(OpCancel))
	mux.Handle("/update", op(OpUpdate))
	mux.Handle("/query", op(OpQuery))
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}
