package dist

// Conditional is the future-lifetime law F_t of §3.3 (Eq. 8) at one
// age t: the law of the remaining lifetime X − t of a resource that has
// already been available for t seconds,
//
//	S_t(x)  = S(t+x) / S(t),
//	PM_t(x) = ∫₀ˣ u f_t(u) du = [PM(t+x) − PM(t) − t(F(t+x) − F(t))] / S(t).
//
// It is the one place the program computes these quantities: the
// Markov model's state-0 terms and its expected images per commit all
// read them through At. NewConditional evaluates S, F and PM at the
// age once; every At then costs one Point of the base law, which is
// what a T_opt search, probing dozens of spans at one age, needs.
//
// For an exponential base S_t equals S (memorylessness); for Weibull
// and hyperexponential bases it is the quantity that turns a single
// optimal interval into an aperiodic schedule.
type Conditional struct {
	base                Distribution
	age                 float64
	sAge, cdfAge, pmAge float64 // base S, F and PM at age
}

// NewConditional returns the future-lifetime law of base at the given
// age. A negative age is treated as zero.
func NewConditional(base Distribution, age float64) Conditional {
	if age < 0 {
		age = 0
	}
	c := Conditional{base: base, age: age}
	c.sAge, c.cdfAge, c.pmAge = Point(base, age)
	return c
}

// AgeSurvival returns S(t), the survival mass the law is conditioned
// on. Where it is tiny, At divides by it and its results lose
// precision.
func (c Conditional) AgeSurvival() float64 { return c.sAge }

// At returns the conditional survival S_t(x) and partial moment
// PM_t(x). At x ≤ 0 they are (1, 0). If S(t) is zero the resource is
// already certain to have failed, and they are (0, 0).
func (c Conditional) At(x float64) (s, pm float64) {
	if x <= 0 {
		return 1, 0
	}
	if c.sAge <= 0 {
		return 0, 0
	}
	sx, cdf, pmx := Point(c.base, c.age+x)
	dF := cdf - c.cdfAge
	return sx / c.sAge, (pmx - c.pmAge - c.age*dF) / c.sAge
}
