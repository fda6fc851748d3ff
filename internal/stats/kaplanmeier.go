package stats

import (
	"errors"
	"math"
	"sort"
)

// KMPoint is one step of a Kaplan-Meier survival curve: the estimated
// probability of surviving beyond Time.
type KMPoint struct {
	Time     float64
	Survival float64
	AtRisk   int // subjects at risk just before Time
	Events   int // failures at Time
}

// KaplanMeier is the product-limit estimator of a survival function
// from right-censored lifetime data — the nonparametric reference the
// censoring-aware parametric fits are judged against.
type KaplanMeier struct {
	points []KMPoint
	n      int
}

// NewKaplanMeier estimates the survival curve from lifetimes and a
// parallel censored flag (censored[i] true means subject i was still
// alive at times[i]). It errors on empty or mismatched input or when
// every observation is censored.
func NewKaplanMeier(times []float64, censored []bool) (*KaplanMeier, error) {
	if len(times) == 0 {
		return nil, errors.New("stats: kaplan-meier needs observations")
	}
	if len(times) != len(censored) {
		return nil, errors.New("stats: kaplan-meier needs matching times and flags")
	}
	type obs struct {
		t float64
		c bool
	}
	all := make([]obs, len(times))
	anyEvent := false
	for i := range times {
		if math.IsNaN(times[i]) || times[i] < 0 {
			return nil, errors.New("stats: kaplan-meier needs finite nonnegative times")
		}
		all[i] = obs{times[i], censored[i]}
		if !censored[i] {
			anyEvent = true
		}
	}
	if !anyEvent {
		return nil, errors.New("stats: kaplan-meier needs at least one event")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t < all[j].t })

	km := &KaplanMeier{n: len(all)}
	s := 1.0
	atRisk := len(all)
	i := 0
	for i < len(all) {
		t := all[i].t
		events, censd := 0, 0
		for i < len(all) && all[i].t == t {
			if all[i].c {
				censd++
			} else {
				events++
			}
			i++
		}
		if events > 0 {
			s *= 1 - float64(events)/float64(atRisk)
			km.points = append(km.points, KMPoint{
				Time: t, Survival: s, AtRisk: atRisk, Events: events,
			})
		}
		atRisk -= events + censd
	}
	return km, nil
}

// Survival returns Ŝ(t), the estimated probability of surviving beyond
// t.
func (km *KaplanMeier) Survival(t float64) float64 {
	s := 1.0
	for _, p := range km.points {
		if p.Time > t {
			break
		}
		s = p.Survival
	}
	return s
}

// Median returns the estimated median lifetime: the earliest event
// time with Ŝ(t) <= 0.5, or NaN if the curve never reaches 0.5 (too
// much censoring).
func (km *KaplanMeier) Median() float64 {
	for _, p := range km.points {
		if p.Survival <= 0.5 {
			return p.Time
		}
	}
	return math.NaN()
}

// N returns the number of subjects.
func (km *KaplanMeier) N() int { return km.n }
