package lubm

import (
	"math/rand"
	"strconv"

	"repro/internal/rdf"
)

// Config sets the generator's cardinality profile. Default mirrors the
// published LUBM (UBA 1.7) profile; Tiny scales it down for unit tests.
type Config struct {
	DeptsMin, DeptsMax           int // departments per university
	FullProfMin, FullProfMax     int
	AssocProfMin, AssocProfMax   int
	AssistProfMin, AssistProfMax int
	LecturerMin, LecturerMax     int
	UndergradRatioMin            int // undergraduates per faculty member
	UndergradRatioMax            int
	GradRatioMin, GradRatioMax   int
	CoursesPerFaculty            int // courses (and graduate courses) taught
	UndergradCoursesMin          int // courses an undergraduate takes
	UndergradCoursesMax          int
	GradCoursesMin               int
	GradCoursesMax               int
	PubsFullMin, PubsFullMax     int
	PubsOtherMin, PubsOtherMax   int
	GroupsMin, GroupsMax         int
	AdvisedUndergradFraction     int // one in N undergraduates has an advisor
	ResearchAssistantFraction    int // one in N graduate students
	TeachingAssistantFraction    int // one in N graduate students
}

// Default returns the LUBM-like profile (one university ≈ 10^5 triples,
// matching the original generator's density).
func Default() Config {
	return Config{
		DeptsMin: 15, DeptsMax: 25,
		FullProfMin: 7, FullProfMax: 10,
		AssocProfMin: 10, AssocProfMax: 14,
		AssistProfMin: 8, AssistProfMax: 11,
		LecturerMin: 5, LecturerMax: 7,
		UndergradRatioMin: 8, UndergradRatioMax: 14,
		GradRatioMin: 3, GradRatioMax: 4,
		CoursesPerFaculty:   2,
		UndergradCoursesMin: 2, UndergradCoursesMax: 4,
		GradCoursesMin: 1, GradCoursesMax: 3,
		PubsFullMin: 15, PubsFullMax: 20,
		PubsOtherMin: 5, PubsOtherMax: 10,
		GroupsMin: 10, GroupsMax: 20,
		AdvisedUndergradFraction:  5,
		ResearchAssistantFraction: 5,
		TeachingAssistantFraction: 4,
	}
}

// Tiny returns a scaled-down profile for unit tests (one university ≈
// 4,000 triples) that still exercises every class and property.
func Tiny() Config {
	return Config{
		DeptsMin: 2, DeptsMax: 3,
		FullProfMin: 2, FullProfMax: 3,
		AssocProfMin: 2, AssocProfMax: 3,
		AssistProfMin: 2, AssistProfMax: 3,
		LecturerMin: 1, LecturerMax: 2,
		UndergradRatioMin: 2, UndergradRatioMax: 3,
		GradRatioMin: 1, GradRatioMax: 2,
		CoursesPerFaculty:   1,
		UndergradCoursesMin: 1, UndergradCoursesMax: 2,
		GradCoursesMin: 1, GradCoursesMax: 2,
		PubsFullMin: 1, PubsFullMax: 3,
		PubsOtherMin: 0, PubsOtherMax: 2,
		GroupsMin: 1, GroupsMax: 3,
		AdvisedUndergradFraction:  3,
		ResearchAssistantFraction: 3,
		TeachingAssistantFraction: 3,
	}
}

// UniversityIRI returns the IRI of university n.
func UniversityIRI(n int) rdf.Term {
	return rdf.NewIRI("http://www.University" + strconv.Itoa(n) + ".edu")
}

// DepartmentIRI returns the IRI of department d of university u.
func DepartmentIRI(u, d int) rdf.Term {
	return rdf.NewIRI("http://www." + departmentHost(u, d))
}

// departmentHost is the host name of department d of university u.
func departmentHost(u, d int) string {
	return "Department" + strconv.Itoa(d) + ".University" + strconv.Itoa(u) + ".edu"
}

// The faculty ranks, in the order a department's roster lists them.
const (
	fullProfessor = iota
	associateProfessor
	assistantProfessor
	lecturer
	numRanks
)

var rankNames = [numRanks]string{"FullProfessor", "AssociateProfessor", "AssistantProfessor", "Lecturer"}

var publicationKinds = [...]string{"JournalArticle", "ConferencePaper", "TechnicalReport", "Book"}

// Generate emits the data triples of nUniv universities to emit,
// deterministically for a given seed. The triple stream follows the LUBM
// generator's structure: department organization, faculty with degrees
// and courses, students with enrollments and advisors, publications with
// authors, and research groups.
//
// Terms are built by concatenation: the property and class terms once
// per call, a department's course IRIs once per department, and every
// other IRI and literal once, in one allocation.
func Generate(nUniv int, seed int64, cfg Config, emit func(rdf.Triple)) {
	rng := rand.New(rand.NewSource(seed))
	between := func(lo, hi int) int {
		if hi <= lo {
			return lo
		}
		return lo + rng.Intn(hi-lo+1)
	}
	t := func(s, p, o rdf.Term) { emit(rdf.NewTriple(s, p, o)) }
	typ := func(s, class rdf.Term) { t(s, rdf.Type, class) }
	lit := func(s, p rdf.Term, val string) { t(s, p, rdf.NewLiteral(val)) }

	var (
		name                    = Prop("name")
		emailAddress            = Prop("emailAddress")
		telephone               = Prop("telephone")
		researchInterest        = Prop("researchInterest")
		subOrganizationOf       = Prop("subOrganizationOf")
		worksFor                = Prop("worksFor")
		undergraduateDegreeFrom = Prop("undergraduateDegreeFrom")
		mastersDegreeFrom       = Prop("mastersDegreeFrom")
		doctoralDegreeFrom      = Prop("doctoralDegreeFrom")
		teacherOf               = Prop("teacherOf")
		headOf                  = Prop("headOf")
		publicationAuthor       = Prop("publicationAuthor")
		memberOf                = Prop("memberOf")
		takesCourse             = Prop("takesCourse")
		advisor                 = Prop("advisor")
		teachingAssistantOf     = Prop("teachingAssistantOf")

		university           = Class("University")
		department           = Class("Department")
		courseClass          = Class("Course")
		graduateCourse       = Class("GraduateCourse")
		undergraduateStudent = Class("UndergraduateStudent")
		graduateStudent      = Class("GraduateStudent")
		researchAssistant    = Class("ResearchAssistant")
		teachingAssistant    = Class("TeachingAssistant")
		researchGroup        = Class("ResearchGroup")
	)
	var rankClasses [numRanks]rdf.Term
	for r, n := range rankNames {
		rankClasses[r] = Class(n)
	}
	var pubClasses [len(publicationKinds)]rdf.Term
	for k, n := range publicationKinds {
		pubClasses[k] = Class(n)
	}

	// buf builds each string before its one allocation.
	var buf []byte
	numbered := func(prefix string, n int) string {
		buf = strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10)
		return string(buf)
	}
	phone := func(n int) string { // "xxx-%04d" for n < 10000
		buf = append(buf[:0], "xxx-0000"...)
		for i := len(buf) - 1; n > 0; i-- {
			buf[i] = byte('0' + n%10)
			n /= 10
		}
		return string(buf)
	}

	randUniv := func() rdf.Term { return UniversityIRI(rng.Intn(nUniv * 5)) } // degrees may come from unseen universities

	for u := 0; u < nUniv; u++ {
		univ := UniversityIRI(u)
		typ(univ, university)
		lit(univ, name, numbered("University", u))

		nDepts := between(cfg.DeptsMin, cfg.DeptsMax)
		for d := 0; d < nDepts; d++ {
			host := departmentHost(u, d)
			dept := rdf.NewIRI("http://www." + host)
			typ(dept, department)
			t(dept, subOrganizationOf, univ)
			lit(dept, name, numbered("Department", d))

			// member returns the IRI of an entity inside the department.
			memberBase := dept.Value + "/"
			member := func(kind string, n int) rdf.Term {
				buf = append(append(buf[:0], memberBase...), kind...)
				buf = strconv.AppendInt(buf, int64(n), 10)
				return rdf.NewIRI(string(buf))
			}
			// email returns a mailbox at the department's host.
			email := func(local string, n int) string {
				buf = strconv.AppendInt(append(buf[:0], local...), int64(n), 10)
				buf = append(append(buf, '@'), host...)
				return string(buf)
			}

			// Faculty roster.
			type facultyMember struct {
				iri  rdf.Term
				rank int
			}
			var faculty []facultyMember
			ranks := [numRanks]int{ // drawn left to right, rank by rank
				between(cfg.FullProfMin, cfg.FullProfMax),
				between(cfg.AssocProfMin, cfg.AssocProfMax),
				between(cfg.AssistProfMin, cfg.AssistProfMax),
				between(cfg.LecturerMin, cfg.LecturerMax),
			}
			for r, n := range ranks {
				for i := 0; i < n; i++ {
					faculty = append(faculty, facultyMember{member(rankNames[r], i), r})
				}
			}

			// Courses: every faculty member teaches CoursesPerFaculty
			// undergraduate courses and one graduate course.
			courses := make([]rdf.Term, len(faculty)*cfg.CoursesPerFaculty)
			for i := range courses {
				courses[i] = member("Course", i)
				typ(courses[i], courseClass)
			}
			gradCourses := make([]rdf.Term, len(faculty))
			for i := range gradCourses {
				gradCourses[i] = member("GraduateCourse", i)
				typ(gradCourses[i], graduateCourse)
			}

			professors := faculty[:0:0]
			for fi, f := range faculty {
				typ(f.iri, rankClasses[f.rank])
				if f.rank != lecturer {
					professors = append(professors, f)
				}
				t(f.iri, worksFor, dept)
				t(f.iri, undergraduateDegreeFrom, randUniv())
				t(f.iri, mastersDegreeFrom, randUniv())
				t(f.iri, doctoralDegreeFrom, randUniv())
				lit(f.iri, name, numbered(rankNames[f.rank], fi))
				lit(f.iri, emailAddress, email(rankNames[f.rank], fi))
				lit(f.iri, telephone, phone(rng.Intn(10000)))
				lit(f.iri, researchInterest, numbered("Research", rng.Intn(30)))
				for c := 0; c < cfg.CoursesPerFaculty; c++ {
					t(f.iri, teacherOf, courses[(fi*cfg.CoursesPerFaculty+c)%len(courses)])
				}
				t(f.iri, teacherOf, gradCourses[fi%len(gradCourses)])
			}
			// The department head is the first full professor.
			t(faculty[0].iri, headOf, dept)

			// Publications: authored by faculty, co-authored by a later
			// graduate student when available (emitted after students).
			var pubs []rdf.Term
			for fi, f := range faculty {
				lo, hi := cfg.PubsOtherMin, cfg.PubsOtherMax
				if f.rank == fullProfessor {
					lo, hi = cfg.PubsFullMin, cfg.PubsFullMax
				}
				n := between(lo, hi)
				for i := 0; i < n; i++ {
					p := member("Publication", len(pubs))
					pubs = append(pubs, p)
					typ(p, pubClasses[rng.Intn(len(pubClasses))])
					t(p, publicationAuthor, f.iri)
					buf = strconv.AppendInt(append(buf[:0], "Publication"...), int64(fi), 10)
					buf = strconv.AppendInt(append(buf, '.'), int64(i), 10)
					lit(p, name, string(buf))
				}
			}

			// Students.
			nUndergrad := len(faculty) * between(cfg.UndergradRatioMin, cfg.UndergradRatioMax)
			nGrad := len(faculty) * between(cfg.GradRatioMin, cfg.GradRatioMax)
			for i := 0; i < nUndergrad; i++ {
				s := member("UndergraduateStudent", i)
				typ(s, undergraduateStudent)
				t(s, memberOf, dept)
				lit(s, name, numbered("UndergraduateStudent", i))
				lit(s, telephone, phone(rng.Intn(10000)))
				for c, n := 0, between(cfg.UndergradCoursesMin, cfg.UndergradCoursesMax); c < n; c++ {
					t(s, takesCourse, courses[rng.Intn(len(courses))])
				}
				if cfg.AdvisedUndergradFraction > 0 && i%cfg.AdvisedUndergradFraction == 0 {
					t(s, advisor, professors[rng.Intn(len(professors))].iri)
				}
			}
			for i := 0; i < nGrad; i++ {
				s := member("GraduateStudent", i)
				typ(s, graduateStudent)
				t(s, memberOf, dept)
				t(s, undergraduateDegreeFrom, randUniv())
				lit(s, name, numbered("GraduateStudent", i))
				lit(s, emailAddress, email("GraduateStudent", i))
				t(s, advisor, professors[rng.Intn(len(professors))].iri)
				for c, n := 0, between(cfg.GradCoursesMin, cfg.GradCoursesMax); c < n; c++ {
					t(s, takesCourse, gradCourses[rng.Intn(len(gradCourses))])
				}
				if cfg.ResearchAssistantFraction > 0 && i%cfg.ResearchAssistantFraction == 0 {
					typ(s, researchAssistant)
				}
				if cfg.TeachingAssistantFraction > 0 && i%cfg.TeachingAssistantFraction == 1 {
					typ(s, teachingAssistant)
					t(s, teachingAssistantOf, courses[rng.Intn(len(courses))])
				}
				// Some graduate students co-author a publication.
				if len(pubs) > 0 && i%3 == 0 {
					t(pubs[rng.Intn(len(pubs))], publicationAuthor, s)
				}
			}

			// Research groups.
			for g, n := 0, between(cfg.GroupsMin, cfg.GroupsMax); g < n; g++ {
				grp := member("ResearchGroup", g)
				typ(grp, researchGroup)
				t(grp, subOrganizationOf, dept)
			}
		}
	}
}

// CountTriples returns how many triples Generate emits for the
// parameters, without storing them.
func CountTriples(nUniv int, seed int64, cfg Config) int {
	n := 0
	Generate(nUniv, seed, cfg, func(rdf.Triple) { n++ })
	return n
}
