package live

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/cycleharvest/ckptsched/internal/ckptnet"
	"github.com/cycleharvest/ckptsched/internal/fit"
	"github.com/cycleharvest/ckptsched/internal/trace"
)

// TestSharedFitsChangeNothing pins CampaignConfig.Fits as a sharing
// handle and not a behaviour option: two campaigns (different links,
// seeds and concurrency) and a validation that read and fill one Fits
// at the same time return exactly what the same calls return with fits
// of their own. Run under -race it is also the concurrent-use test of
// the memo.
func TestSharedFitsChangeNothing(t *testing.T) {
	machines, history := testbed(t, 16, 23)
	campus := CampaignConfig{
		Machines: machines, History: history, Link: ckptnet.CampusLink(),
		SamplesPerModel: 6, Seed: 23,
	}
	wan := CampaignConfig{
		Machines: machines, History: history, Link: ckptnet.WideAreaLink(),
		SamplesPerModel: 4, Concurrency: 3, Seed: 24,
	}
	newFits := func() *Fits {
		f, err := NewFits(history)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	wantCampus, err := RunCampaign(campus)
	if err != nil {
		t.Fatal(err)
	}
	wantWAN, err := RunCampaign(wan)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := Validate(wantCampus, newFits())
	if err != nil {
		t.Fatal(err)
	}

	shared := newFits()
	campus.Fits, wan.Fits = shared, shared
	var (
		wg                         sync.WaitGroup
		gotCampus, gotWAN          *Campaign
		gotRows                    []ValidationRow
		errCampus, errWAN, errRows error
	)
	wg.Add(3)
	go func() { defer wg.Done(); gotCampus, errCampus = RunCampaign(campus) }()
	go func() { defer wg.Done(); gotWAN, errWAN = RunCampaign(wan) }()
	go func() { defer wg.Done(); gotRows, errRows = Validate(wantCampus, shared) }()
	wg.Wait()
	for _, err := range []error{errCampus, errWAN, errRows} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(gotCampus, wantCampus) {
		t.Error("campus campaign differs with a shared Fits")
	}
	if !reflect.DeepEqual(gotWAN, wantWAN) {
		t.Error("wide-area campaign differs with a shared Fits")
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("validation differs with a shared Fits:\n got %+v\nwant %+v", gotRows, wantRows)
	}

	// A Fits of some other history is a wiring mistake, not a fallback.
	_, other := testbed(t, 3, 29)
	otherFits, err := NewFits(other)
	if err != nil {
		t.Fatal(err)
	}
	campus.Fits = otherFits
	if _, err := RunCampaign(campus); err == nil {
		t.Error("RunCampaign accepted a Fits built from a different history")
	}
}

// TestFitFailureReportsFirstPlacement pins which sample a campaign
// names when a machine's history cannot be fitted: the first one, in
// the order the pool placed them, that landed on it — whatever the
// submission concurrency and however many workers fit in parallel.
func TestFitFailureReportsFirstPlacement(t *testing.T) {
	machines, history := testbed(t, 6, 31)
	for _, conc := range []int{1, 4} {
		cfg := CampaignConfig{
			Machines: machines, History: history, Link: ckptnet.CampusLink(),
			SamplesPerModel: 3, Concurrency: conc, Seed: 31,
		}
		cfg.setDefaults() // as RunCampaign does: RequiresMB decides who can host
		allocs, err := planAllocations(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Break the second machine the campaign lands on: sample 0 still
		// fits, and later samples on the broken machine must not win.
		first, second := allocs[0].machine.Name, ""
		want := -1
		for idx, al := range allocs {
			if al.machine.Name != first {
				second, want = al.machine.Name, idx
				break
			}
		}
		if want < 0 {
			t.Fatalf("concurrency %d: every sample ran on %s", conc, first)
		}
		if n := history.Traces[second].Len(); n < trace.DefaultTrainingSize {
			t.Fatalf("%s has %d records and would be fitted on the pooled archive", second, n)
		}
		broken := trace.NewSet()
		for name, tr := range history.Traces {
			for _, r := range tr.Records {
				if name == second {
					r.Duration = math.NaN() // the estimators drop it: no data left
				}
				broken.Add(name, r)
			}
		}
		cfg.History = broken
		_, err = RunCampaign(cfg)
		if err == nil {
			t.Fatalf("concurrency %d: campaign over an unfittable machine succeeded", conc)
		}
		prefix := fmt.Sprintf("live: sample %d (%v): ", want, modelFor(want))
		if !strings.HasPrefix(err.Error(), prefix) || !errors.Is(err, fit.ErrNoData) {
			t.Errorf("concurrency %d: error %q, want prefix %q wrapping fit.ErrNoData", conc, err, prefix)
		}
	}
}
