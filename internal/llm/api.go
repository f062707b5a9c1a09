package llm

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"slurmsight/internal/plot"
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
// rate limit per key, and the analyst behind POST /v1/analyze.
type Server struct {
	// APIKeys lists accepted bearer tokens; empty disables auth.
	APIKeys []string
	// RatePerSec and Burst configure the per-key token bucket; zero
	// disables limiting.
	RatePerSec float64
	Burst      float64
	// ModelName is echoed in responses.
	ModelName string
	// Now is the clock (overridable in tests).
	Now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
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
	if status, err := s.authorize(r); err != nil {
		s.deny(w, status, err)
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

// deny writes an auth or rate-limit rejection, attaching a Retry-After
// hint to 429s so retry-aware clients pace themselves off the server's
// token-bucket refill instead of their own guess.
func (s *Server) deny(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		secs := 1
		if s.RatePerSec > 0 && s.RatePerSec < 1 {
			secs = int(1/s.RatePerSec + 0.5)
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, apiError{err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// authorize validates the bearer token and applies the rate limit.
func (s *Server) authorize(r *http.Request) (int, error) {
	key := ""
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		key = strings.TrimPrefix(auth, "Bearer ")
	}
	if len(s.APIKeys) > 0 {
		ok := false
		for _, k := range s.APIKeys {
			if key == k {
				ok = true
				break
			}
		}
		if !ok {
			return http.StatusUnauthorized, fmt.Errorf("invalid API key")
		}
	}
	if s.RatePerSec <= 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.buckets == nil {
		s.buckets = map[string]*bucket{}
	}
	b, ok := s.buckets[key]
	now := s.Now()
	if !ok {
		b = &bucket{tokens: s.Burst, last: now}
		s.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * s.RatePerSec
	if b.tokens > s.Burst {
		b.tokens = s.Burst
	}
	b.last = now
	if b.tokens < 1 {
		return http.StatusTooManyRequests, fmt.Errorf("rate limit exceeded")
	}
	b.tokens--
	return 0, nil
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
	if status, err := s.authorize(r); err != nil {
		s.deny(w, status, err)
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
