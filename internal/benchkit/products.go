package benchkit

// FactorizedSpecs returns the cross-product queries: BGPs whose join
// graphs decompose into independent components, so the answer set is a
// product of their answers (FX1 and FX2 are asked by the repo benchmark's
// bulk workload, whose answers they make large). They are deliberately
// *not* part of lubm.Queries() — the tracked workload and its regression
// gates stay untouched — but they use the same LUBM vocabulary and run
// against the same database. The name is kept for the benchmark's sake;
// answers are held as flat rows like any other.
func FactorizedSpecs() []Spec {
	const prolog = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
	return []Spec{
		{
			Name: "FX1",
			Text: prolog + `SELECT ?x ?y WHERE {
				?x rdf:type ub:Professor .
				?y rdf:type ub:Department }`,
			Comment: "two-way product: professors (via subclass reformulation) x departments",
		},
		{
			Name: "FX2",
			Text: prolog + `SELECT ?x ?y ?z WHERE {
				?x rdf:type ub:Department .
				?y rdf:type ub:ResearchGroup .
				?z rdf:type ub:University }`,
			Comment: "three-way product: departments x research groups x universities",
		},
		{
			Name: "FX3",
			Text: prolog + `SELECT ?x ?d ?y WHERE {
				?x ub:worksFor ?d .
				?y rdf:type ub:GraduateCourse }`,
			Comment: "connected pair x independent component",
		},
		{
			Name: "FX4",
			Text: prolog + `SELECT ?x ?y WHERE {
				?x rdf:type ub:GraduateStudent .
				?x ub:advisor ?p .
				?y rdf:type ub:Department }`,
			Comment: "control with a non-head variable inside one component",
		},
	}
}
