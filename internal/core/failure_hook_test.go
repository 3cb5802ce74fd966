// Internal tests for the failure policy as an Intercept hook: the
// re-issue table covers the whole site surface, the hook consults it by
// method name, and "stale" is a typed signal, never a substring.
package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"distcfd/internal/cfd"
	"distcfd/internal/relation"
	"distcfd/internal/workload"
)

// TestEverySiteMethodClassified walks SiteAPI's context-taking methods
// — exactly the ones Intercept routes through a hook — and requires each
// to have a row in the reissue table, so a method added to the
// interface cannot default silently. The four that consume deposits or
// mutate retained state must stay classified as such, and the table
// must not keep rows for methods the interface no longer has.
func TestEverySiteMethodClassified(t *testing.T) {
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	api := reflect.TypeOf((*SiteAPI)(nil)).Elem()
	work := map[string]bool{}
	for i := 0; i < api.NumMethod(); i++ {
		m := api.Method(i)
		if m.Type.NumIn() == 0 || m.Type.In(0) != ctxType {
			continue // identity and cleanup never pass through a hook
		}
		work[m.Name] = true
		if _, ok := reissue[m.Name]; !ok {
			t.Errorf("SiteAPI.%s is not classified in the reissue table", m.Name)
		}
	}
	for name := range reissue {
		if !work[name] {
			t.Errorf("reissue has a row for %q, which is not a context-taking SiteAPI method", name)
		}
	}
	for _, name := range []string{"DetectTask", "DetectAssignedSingle", "DetectAssignedSet", "FoldDetect"} {
		if reissue[name] {
			t.Errorf("%s consumes deposits or mutates retained state; it must not be re-issuable", name)
		}
	}
}

// flakySite fails the first call of every method with a transient error
// that may have executed (a lost response), then forwards.
type flakySite struct {
	SiteAPI
	calls map[string]int
}

func (f *flakySite) fail(method string) error {
	f.calls[method]++
	if f.calls[method] == 1 {
		return &CodedError{Code: CodeUnavailable, Msg: "lost response"}
	}
	return nil
}

func (f *flakySite) SigmaStats(ctx context.Context, spec *BlockSpec) ([]int, error) {
	if err := f.fail("SigmaStats"); err != nil {
		return nil, err
	}
	return f.SiteAPI.SigmaStats(ctx, spec)
}

func (f *flakySite) DetectAssignedSingle(ctx context.Context, task string, spec *BlockSpec, blocks []int, c *cfd.CFD) (*relation.Relation, error) {
	if err := f.fail("DetectAssignedSingle"); err != nil {
		return nil, err
	}
	return f.SiteAPI.DetectAssignedSingle(ctx, task, spec, blocks, c)
}

// TestHookReissuesByTable drives the run's site view directly: under
// FailRetry a read that may have executed is re-issued in place and
// succeeds, a deposit-consuming call is not — it escalates as a
// SiteFailure after one attempt — and under FailFast the view is the
// cluster's own slice, so the hook costs a fault-free run nothing.
func TestHookReissuesByTable(t *testing.T) {
	ctx := context.Background()
	site := &flakySite{SiteAPI: NewSite(0, workload.EMPData(), relation.True()), calls: map[string]int{}}
	cl, err := NewCluster(workload.EMPSchema(), []SiteAPI{site})
	if err != nil {
		t.Fatal(err)
	}
	c := workload.EMPCFDs()[0]
	spec, err := SpecFromCFD(c)
	if err != nil {
		t.Fatal(err)
	}

	fast := newFaultState(cl, Options{})
	if &fast.sites[0] != &cl.sites[0] {
		t.Error("FailFast must hand the run the cluster's own site slice")
	}

	fs := newFaultState(cl, Options{Failure: FailRetry})
	if _, err := fs.sites[0].SigmaStats(ctx, spec); err != nil {
		t.Fatalf("a read must be re-issued through a lost response: %v", err)
	}
	if site.calls["SigmaStats"] != 2 {
		t.Errorf("SigmaStats ran %d times, want 2", site.calls["SigmaStats"])
	}
	_, err = fs.sites[0].DetectAssignedSingle(ctx, "t", spec, []int{0}, c)
	var sf *SiteFailure
	if !errors.As(err, &sf) || sf.Site != 0 {
		t.Fatalf("a consuming call that may have executed must escalate as a SiteFailure, got %v", err)
	}
	if site.calls["DetectAssignedSingle"] != 1 {
		t.Errorf("DetectAssignedSingle ran %d times, want exactly 1", site.calls["DetectAssignedSingle"])
	}
	if retries, faults := fs.totals(); retries != 1 || faults != 2 {
		t.Errorf("fault channel = %d retries / %d faults, want 1 / 2", retries, faults)
	}
}

// TestStaleIsTypedNotSubstring: a plain site error whose text merely
// quotes the stale phrase — here ApplyDelta's predicate-violation
// error at a site whose fragment predicate constant is that phrase —
// is not a reseed signal, while every real producer still is.
func TestStaleIsTypedNotSubstring(t *testing.T) {
	ctx := context.Background()
	const phrase = "incremental state stale"
	s := NewSite(0, relation.New(workload.EMPSchema()), relation.And(relation.Eq("city", phrase)))
	outside := workload.EMPData().Tuples()[0]
	_, err := s.ApplyDelta(ctx, relation.Delta{Inserts: []relation.Tuple{outside}}, "")
	if err == nil || !strings.Contains(err.Error(), phrase) {
		t.Fatalf("fixture: want a predicate-violation error quoting the phrase, got %v", err)
	}
	if IsStaleIncremental(err) {
		t.Errorf("an error that only quotes the phrase must not read as stale: %v", err)
	}

	c := workload.EMPCFDs()[0]
	spec, err := SpecFromCFD(c)
	if err != nil {
		t.Fatal(err)
	}
	attrs := taskAttrs(spec, []*cfd.CFD{c})
	fold := FoldArgs{Session: "s", Spec: spec, Blocks: []int{0}, CFDs: []*cfd.CFD{c}}
	producers := map[string]func(*Site) error{
		"log does not cover the watermark": func(s *Site) error {
			_, err := s.ExtractDeltaBlocks(ctx, spec, attrs, []int{0}, 99)
			return err
		},
		"fold of an unknown session": func(s *Site) error {
			_, err := s.FoldDetect(ctx, fold)
			return err
		},
		"fold from an uncovered generation": func(s *Site) error {
			seed := fold
			seed.Seed = true
			if _, err := s.FoldDetect(ctx, seed); err != nil {
				return err
			}
			late := fold
			late.FromGen = 99
			_, err := s.FoldDetect(ctx, late)
			return err
		},
		"session folded a different spec": func(s *Site) error {
			seed := fold
			seed.Seed = true
			if _, err := s.FoldDetect(ctx, seed); err != nil {
				return err
			}
			// Another spec over c's LHS: one over attributes c lacks is
			// malformed, refused before the session is looked up.
			other := fold
			other.Spec, err = NewBlockSpec(c.X, [][]string{{cfd.Wildcard, cfd.Wildcard}})
			if err != nil {
				return err
			}
			_, err = s.FoldDetect(ctx, other)
			return err
		},
		"block folded another CFD count": func(s *Site) error {
			seed := fold
			seed.Seed = true
			if _, err := s.FoldDetect(ctx, seed); err != nil {
				return err
			}
			two := fold
			two.CFDs, two.FromGen = []*cfd.CFD{c, c}, 1
			_, err := s.FoldDetect(ctx, two)
			return err
		},
	}
	for name, produce := range producers {
		s := NewSite(0, workload.EMPData(), relation.True())
		// One applied delta anchors the log, so staleness is the log's
		// verdict rather than "never anchored".
		if _, err := s.ApplyDelta(ctx, relation.Delta{Deletes: []int{0}}, ""); err != nil {
			t.Fatal(err)
		}
		if err := produce(s); !IsStaleIncremental(err) || !errors.Is(err, ErrStaleIncremental) {
			t.Errorf("%s: want the typed stale signal, got %v", name, err)
		}
	}
}
