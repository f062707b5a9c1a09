package llm

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"slurmsight/internal/plot"
	"slurmsight/internal/ratelimit"
)

// Image is one chart attachment: the PNG rendering plus the chart spec
// sidecar the simulated model actually reads. A real multimodal model
// would decode the pixels; carrying both preserves the pipeline interface
// while keeping the analysis deterministic and checkable.
type Image struct {
	Name string `json:"name"`
	PNG  []byte `json:"png"`  // base64 in transit via encoding/json
	Spec string `json:"spec"` // chart-spec JSON
}

// Request is the /v1/analyze payload.
type Request struct {
	Prompt string  `json:"prompt"`
	Images []Image `json:"images"`
}

// Response is the /v1/analyze result.
type Response struct {
	Text  string             `json:"text"`
	Stats map[string]float64 `json:"stats"`
	Model string             `json:"model"`
}

// apiError is the error body.
type apiError struct {
	Error string `json:"error"`
}

// Server is the mock model endpoint: bearer-token auth, a token-bucket
// rate limit per client, and the analyst behind POST /v1/analyze.
type Server struct {
	// APIKeys lists accepted bearer tokens; empty disables auth.
	APIKeys []string
	// RatePerSec and Burst configure the per-client token bucket (a
	// client is its API key, or its remote host when auth is off); zero
	// disables limiting. Set them before the first request.
	RatePerSec float64
	Burst      float64
	// ModelName is echoed in responses.
	ModelName string
	// Now is the clock (overridable in tests).
	Now func() time.Time

	limOnce sync.Once
	lim     *ratelimit.Limiter // built from the fields above on first use
}

// NewServer returns a server with the paper's chosen backend name.
func NewServer(keys ...string) *Server {
	return &Server{
		APIKeys:    keys,
		RatePerSec: 10,
		Burst:      20,
		ModelName:  "gemma-3-sim",
		Now:        time.Now,
	}
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/chat", s.handleChat)
	mux.HandleFunc("/v1/evolve", s.handleEvolve)
	return mux
}

// ChatRequest is the /v1/chat payload: a grounded question. The request
// is stateless — clients echo the returned topic to keep follow-ups
// ("why?", "tell me more") on subject.
type ChatRequest struct {
	Facts    Facts  `json:"facts"`
	Message  string `json:"message"`
	Previous Topic  `json:"previous,omitempty"`
}

// ChatResponse is the /v1/chat result.
type ChatResponse struct {
	Reply Reply  `json:"reply"`
	Model string `json:"model"`
}

func (s *Server) handleChat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"POST only"})
		return
	}
	if status, wait, err := s.authorize(r); err != nil {
		s.deny(w, status, wait, err)
		return
	}
	var req ChatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"malformed request: " + err.Error()})
		return
	}
	if req.Message == "" {
		writeJSON(w, http.StatusBadRequest, apiError{"empty message"})
		return
	}
	reply := NewAgent(req.Facts).Ask(req.Message, req.Previous)
	writeJSON(w, http.StatusOK, ChatResponse{Reply: reply, Model: s.ModelName})
}

// deny writes an auth or rate-limit rejection, attaching to a 429 the
// Retry-After the token bucket computed (wait until the next whole
// token), so retry-aware clients pace themselves off the server's refill
// instead of their own guess.
func (s *Server) deny(w http.ResponseWriter, status int, wait time.Duration, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(ratelimit.RetryAfter(wait)))
	}
	writeJSON(w, status, apiError{err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// authorize validates the bearer token and applies the rate limit,
// returning on a 429 how long until the client's next token. With auth
// on, a client is its token; with it off, the token is unchecked, so a
// client is its remote host.
func (s *Server) authorize(r *http.Request) (int, time.Duration, error) {
	credential := ""
	if len(s.APIKeys) > 0 {
		key := ""
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
		if !slices.Contains(s.APIKeys, key) {
			return http.StatusUnauthorized, 0, fmt.Errorf("invalid API key")
		}
		credential = key
	}
	s.limOnce.Do(func() { s.lim = ratelimit.New(s.RatePerSec, s.Burst, s.Now, nil) })
	if ok, wait := s.lim.Allow(ratelimit.ClientKey(r, credential)); !ok {
		return http.StatusTooManyRequests, wait, fmt.Errorf("rate limit exceeded")
	}
	return 0, 0, nil
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET only"})
		return
	}
	writeJSON(w, http.StatusOK, Registry())
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{"POST only"})
		return
	}
	if status, wait, err := s.authorize(r); err != nil {
		s.deny(w, status, wait, err)
		return
	}
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"malformed request: " + err.Error()})
		return
	}
	charts := make([]*plot.Chart, 0, len(req.Images))
	for _, img := range req.Images {
		c, err := plot.FromJSON([]byte(img.Spec))
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				apiError{fmt.Sprintf("image %q has no readable chart: %v", img.Name, err)})
			return
		}
		charts = append(charts, c)
	}
	var (
		analysis Analysis
		err      error
	)
	switch {
	case len(charts) == 1:
		analysis, err = AnalyzeChart(charts[0])
	case len(charts) == 2:
		analysis, err = CompareCharts(charts[0], charts[1])
	default:
		writeJSON(w, http.StatusBadRequest,
			apiError{fmt.Sprintf("expected 1 or 2 images, got %d", len(charts))})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, apiError{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, Response{
		Text:  analysis.Text,
		Stats: analysis.Stats,
		Model: s.ModelName,
	})
}

// EncodeImage packages a chart for transport: PNG bytes plus spec JSON.
func EncodeImage(name string, pngData []byte, c *plot.Chart) (Image, error) {
	spec, err := c.JSON()
	if err != nil {
		return Image{}, err
	}
	return Image{Name: name, PNG: pngData, Spec: string(spec)}, nil
}
