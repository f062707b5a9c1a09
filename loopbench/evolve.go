package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"slurmsight/internal/core"
	"slurmsight/internal/llm"
	"slurmsight/internal/obs"
	"slurmsight/internal/sched/tournament"
)

// sched-evolve: one op is one evolve round as `schedbench
// -evolve-rounds 1` runs it — a tournament over the standard field plus
// the evolving target, the scorecard to the advisor over loopback HTTP,
// the deltas applied, a final re-score — chained so op n+1 starts from
// op n's final spec.

const evolveTarget = "evolved"

// advisor is the in-process llm.Server on a loopback listener. The
// handler is wrapped so a traced run sees the advisor's share of an op
// from outside both packages.
type advisor struct {
	http   *http.Server
	base   string
	served chan error
	parent atomic.Pointer[obs.Span] // the core.Evolve call in flight, if traced
}

func startAdvisor() (*advisor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	a := &advisor{base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	h := llm.NewServer().Handler()
	a.http = &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := a.parent.Load().Child("llm.advise")
		h.ServeHTTP(w, r)
		sp.End()
	})}
	go func() { a.served <- a.http.Serve(ln) }()
	return a, nil
}

func (a *advisor) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a.http.Shutdown(ctx)
	<-a.served
}

func evolveSpecs() []tournament.Spec {
	return append(tournament.DefaultSpecs(), tournament.Spec{Name: evolveTarget})
}

// scoreBytes renders one policy's outcome without its wall-clock field
// and without the echoed spec: a round's scorecard shares the target
// spec's Weights with the spec core.Evolve goes on to mutate, so the
// echo shows post-delta weights while the scores are pre-delta.
func scoreBytes(p tournament.PolicyScore) []byte {
	p.ElapsedMS = 0
	p.Spec = tournament.Spec{}
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // plain data
	}
	return b
}

type evolveSession struct {
	env     *env
	adv     *advisor
	results []*core.EvolveResult // every op of the last loop, nil where it failed
}

func openEvolve(e *env) (session, error) {
	adv, err := startAdvisor()
	if err != nil {
		return nil, err
	}
	return &evolveSession{env: e, adv: adv}, nil
}

func (s *evolveSession) evolveOp(serial int, specs []tournament.Spec, parent *obs.Span) (*core.EvolveResult, error) {
	sp := parent.Child("op")
	sp.SetAttrInt("op", int64(serial))
	defer sp.End()
	run := sp.Child("core.evolve")
	defer run.End()
	s.adv.parent.Store(run)
	defer s.adv.parent.Store(nil)
	return core.Evolve(context.Background(), core.EvolveConfig{
		Client: llm.NewClient(s.adv.base, ""),
		Rounds: 1,
		Target: evolveTarget,
		Specs:  specs,
		Reqs:   s.env.contended.requests,
		System: s.env.contended.system,
		Seed:   s.env.cfg.seed,
	})
}

func (s *evolveSession) loop(parent *obs.Span) loopStats {
	var st loopStats
	specs := evolveSpecs()
	s.results = s.results[:0]
	for i := 0; i < s.env.sz.evolveOps; i++ {
		t0 := time.Now()
		res, err := s.evolveOp(i, specs, parent)
		st.opMS = append(st.opMS, ms(time.Since(t0)))
		if err == nil && (len(res.Rounds) != 1 || res.Final == nil) {
			err = fmt.Errorf("evolve returned %d rounds", len(res.Rounds))
		}
		if err != nil {
			st.fail("op %d: %v", i, err)
			s.results = append(s.results, nil)
			continue
		}
		s.results = append(s.results, res)
		// Two tournaments per op, every arm replaying every request.
		st.work += 2 * int64(len(specs)) * int64(len(s.env.contended.requests))
		specs[len(specs)-1] = res.FinalSpec
	}
	return st
}

// verify holds every op's round-0 scorecard against a solo tournament
// made here, after the loop: the seven standard arms never change, so
// their rows must be byte-equal to it in every op; the target arm's row
// must be byte-equal to what the previous op's final re-score gave the
// same spec (for the first op, to the solo tournament's target row).
func (s *evolveSession) verify(st *loopStats) error {
	e := s.env
	if e.evolveWant == nil {
		ref, err := tournament.Run(tournament.Input{
			Specs: evolveSpecs(), Reqs: e.contended.requests, System: e.contended.system, Seed: e.cfg.seed,
		})
		if err != nil {
			return fmt.Errorf("solo reference tournament: %w", err)
		}
		for _, p := range ref.Policies {
			e.evolveWant = append(e.evolveWant, scoreBytes(p))
		}
		e.digests["sched-evolve.round0"] = hex64(digest(e.evolveWant...))
		if e.cfg.tamper {
			e.evolveWant[0] = append(e.evolveWant[0], ' ')
		}
	}
	var prevTarget []byte
	for i, res := range s.results {
		if res == nil {
			prevTarget = nil
			continue
		}
		got := res.Rounds[0].Scorecard.Policies
		if len(got) != len(e.evolveWant) {
			st.fail("op %d: scorecard has %d arms, want %d", i, len(got), len(e.evolveWant))
			continue
		}
		for a, p := range got {
			want := e.evolveWant[a]
			if p.Name == evolveTarget && i > 0 {
				want = prevTarget
			}
			if want != nil && !bytes.Equal(scoreBytes(p), want) {
				st.fail("op %d: round-0 score of arm %q differs from the reference", i, p.Name)
				break
			}
		}
		prevTarget = scoreBytes(res.Final.Policies[len(got)-1])
	}
	return nil
}

func (s *evolveSession) close() { s.adv.stop() }
