// Package workload generates the experiment datasets and their
// simulation-only ground-truth oracles. Each dataset mirrors a workload of
// the paper's evaluation: the VLDB conference schema of the demo's
// examples (talks, notable attendees, talk preference), the company
// entity-resolution workload (CROWDEQUAL), the professor-directory probe
// workload (CrowdProbe), and venue restaurants for the mobile platform.
//
// The oracle implements taskmgr.Oracle: it tells simulated workers what a
// correct answer looks like. CrowdDB itself never sees it.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"crowddb/internal/crowd"
	"crowddb/internal/sqltypes"
	"crowddb/internal/taskmgr"
)

// Oracle is a composable taskmgr.Oracle: datasets register handlers per
// table; comparisons go to a single handler.
type Oracle struct {
	probe   map[string]func(known map[string]sqltypes.Value, ask []string) *crowd.SimTruth
	tuple   map[string]func(prefill map[string]sqltypes.Value, i int) *crowd.SimTruth
	compare func(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle {
	return &Oracle{
		probe: make(map[string]func(map[string]sqltypes.Value, []string) *crowd.SimTruth),
		tuple: make(map[string]func(map[string]sqltypes.Value, int) *crowd.SimTruth),
	}
}

// RegisterProbe installs the probe-truth handler for a table.
func (o *Oracle) RegisterProbe(table string, fn func(known map[string]sqltypes.Value, ask []string) *crowd.SimTruth) {
	o.probe[strings.ToLower(table)] = fn
}

// RegisterTuple installs the new-tuple-truth handler for a table.
func (o *Oracle) RegisterTuple(table string, fn func(prefill map[string]sqltypes.Value, i int) *crowd.SimTruth) {
	o.tuple[strings.ToLower(table)] = fn
}

// RegisterCompare installs the comparison-truth handler.
func (o *Oracle) RegisterCompare(fn func(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth) {
	o.compare = fn
}

// ProbeTruth implements taskmgr.Oracle.
func (o *Oracle) ProbeTruth(table string, known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
	if fn, ok := o.probe[strings.ToLower(table)]; ok {
		return fn(known, ask)
	}
	return nil
}

// NewTupleTruth implements taskmgr.Oracle.
func (o *Oracle) NewTupleTruth(table string, prefill map[string]sqltypes.Value, i int) *crowd.SimTruth {
	if fn, ok := o.tuple[strings.ToLower(table)]; ok {
		return fn(prefill, i)
	}
	return nil
}

// CompareTruth implements taskmgr.Oracle.
func (o *Oracle) CompareTruth(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth {
	if o.compare != nil {
		return o.compare(kind, question, left, right)
	}
	return nil
}

var _ taskmgr.Oracle = (*Oracle)(nil)

// ---------------------------------------------------------------------------
// Conference: the demo paper's running example (§2).

// TalkInfo is the ground truth for one VLDB talk.
type TalkInfo struct {
	Title       string
	Abstract    string
	NbAttendees int
	// Preference is the hidden favorability score CROWDORDER answers
	// derive from (Example 3: "Which talk did you like better").
	Preference float64
}

// Conference is the VLDB-2011 demo dataset.
type Conference struct {
	Talks []TalkInfo
	// Notable maps a talk title to its notable attendees (the open-world
	// content of the NotableAttendee CROWD table, Example 2).
	Notable map[string][]string

	rng *rand.Rand
}

var talkTopics = []string{
	"Crowdsourced Query Processing", "Column-Store Compression", "Adaptive Indexing",
	"Stream Processing at Scale", "Probabilistic Databases", "Graph Pattern Mining",
	"Transactional Memory for OLTP", "Declarative Machine Learning", "Elastic Cloud Databases",
	"Provenance Tracking", "Skyline Queries", "Entity Resolution at Web Scale",
	"Main-Memory Hash Joins", "Flash-Aware Storage", "Workload-Driven Partitioning",
	"Array Databases for Science", "Privacy-Preserving Analytics", "Temporal Query Languages",
	"Self-Tuning Optimizers", "Energy-Efficient Query Processing",
}

var researcherNames = []string{
	"Mike Franklin", "Donald Kossmann", "Tim Kraska", "Sam Madden", "Amber Feng",
	"Reynold Xin", "Sukriti Ramesh", "Andrew Wang", "Jennifer Widom", "David DeWitt",
	"Michael Stonebraker", "Surajit Chaudhuri", "Anastasia Ailamaki", "Joe Hellerstein",
	"Magda Balazinska", "Daniel Abadi", "Jens Dittrich", "Volker Markl",
	"Laura Haas", "Gustavo Alonso", "Peter Boncz", "Stratos Idreos",
}

// NewConference generates n talks with deterministic ground truth.
func NewConference(n int, seed int64) *Conference {
	rng := rand.New(rand.NewSource(seed))
	c := &Conference{Notable: make(map[string][]string), rng: rng}
	for i := 0; i < n; i++ {
		topic := talkTopics[i%len(talkTopics)]
		title := fmt.Sprintf("%s %d", topic, i+1)
		c.Talks = append(c.Talks, TalkInfo{
			Title:       title,
			Abstract:    fmt.Sprintf("We present new techniques for %s, improving on the state of the art.", strings.ToLower(topic)),
			NbAttendees: 30 + rng.Intn(270),
			Preference:  rng.Float64(),
		})
		// 1-4 notable attendees per talk.
		k := 1 + rng.Intn(4)
		perm := rng.Perm(len(researcherNames))
		for j := 0; j < k; j++ {
			c.Notable[title] = append(c.Notable[title], researcherNames[perm[j]])
		}
	}
	return c
}

// DemoScript is the script the shell and the daemon run under -demo: the
// paper's conference schema (Talk with its crowd columns, the
// NotableAttendee CROWD table) and the titles of the first ten talks.
func (c *Conference) DemoScript() string {
	var b strings.Builder
	b.WriteString(`CREATE TABLE Talk (
	title STRING PRIMARY KEY,
	abstract CROWD STRING,
	nb_attendees CROWD INTEGER );
CREATE CROWD TABLE NotableAttendee (
	name STRING PRIMARY KEY,
	title STRING,
	FOREIGN KEY (title) REF Talk(title) );
`)
	for _, talk := range c.Talks[:10] {
		fmt.Fprintf(&b, "INSERT INTO Talk (title) VALUES (%s);\n", sqltypes.NewString(talk.Title).SQLLiteral())
	}
	return b.String()
}

// Talk returns the ground truth for a title.
func (c *Conference) Talk(title string) (TalkInfo, bool) {
	for _, t := range c.Talks {
		if strings.EqualFold(t.Title, title) {
			return t, true
		}
	}
	return TalkInfo{}, false
}

// PreferenceRanking returns talk titles best-first — the ground truth for
// CROWDORDER quality measurements (experiment E8).
func (c *Conference) PreferenceRanking() []string {
	talks := append([]TalkInfo(nil), c.Talks...)
	sort.Slice(talks, func(i, j int) bool { return talks[i].Preference > talks[j].Preference })
	titles := make([]string, len(talks))
	for i, t := range talks {
		titles[i] = t.Title
	}
	return titles
}

// Oracle builds the simulation oracle for the conference schema: Talk
// probes, NotableAttendee tuples, and talk-preference comparisons.
func (c *Conference) Oracle() *Oracle {
	o := NewOracle()
	o.RegisterProbe("Talk", func(known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
		title := known["title"].Str()
		info, ok := c.Talk(title)
		if !ok {
			return nil
		}
		truth := make(map[string]string)
		wrong := make(map[string][]string)
		for _, col := range ask {
			switch strings.ToLower(col) {
			case "abstract":
				truth[col] = info.Abstract
				wrong[col] = []string{"An interesting talk about databases.", "See the proceedings."}
			case "nb_attendees":
				truth[col] = fmt.Sprintf("%d", info.NbAttendees)
				// Counting a room is noisy: plausible wrong answers are
				// nearby counts.
				wrong[col] = []string{
					fmt.Sprintf("%d", info.NbAttendees+5+c.rng.Intn(30)),
					fmt.Sprintf("%d", maxInt(1, info.NbAttendees-5-c.rng.Intn(30))),
				}
			}
		}
		return &crowd.SimTruth{Truth: truth, Wrong: wrong, Difficulty: 0.1}
	})
	o.RegisterTuple("NotableAttendee", func(prefill map[string]sqltypes.Value, i int) *crowd.SimTruth {
		title := ""
		if v, ok := prefill["title"]; ok {
			title = v.Str()
		}
		names := c.Notable[title]
		if len(names) == 0 {
			// Workers asked about an unknown talk improvise.
			return &crowd.SimTruth{Truth: map[string]string{
				"name":  researcherNames[i%len(researcherNames)],
				"title": title,
			}, Difficulty: 0.5}
		}
		return &crowd.SimTruth{Truth: map[string]string{
			"name":  names[i%len(names)],
			"title": title,
		}, Difficulty: 0.1}
	})
	o.RegisterCompare(func(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth {
		if kind == crowd.TaskCompareEqual {
			ans := "no"
			if normalizeLoose(left) == normalizeLoose(right) {
				ans = "yes"
			}
			return &crowd.SimTruth{Truth: map[string]string{"answer": ans}, Difficulty: 0.15}
		}
		li, lok := c.Talk(left)
		ri, rok := c.Talk(right)
		if !lok || !rok {
			return &crowd.SimTruth{Difficulty: 1}
		}
		win := left
		if ri.Preference > li.Preference {
			win = right
		}
		// Subjective comparisons are harder when preferences are close.
		diff := 0.15 + 0.5*(1-absF(li.Preference-ri.Preference))
		return &crowd.SimTruth{Truth: map[string]string{"answer": win}, Difficulty: diff}
	})
	return o
}

// ---------------------------------------------------------------------------
// Companies: the SIGMOD paper's entity-resolution workload (CROWDEQUAL).

// Company is one canonical entity with surface-form variants.
type Company struct {
	Canonical string
	Variants  []string
	HQ        string
}

// Companies is the entity-resolution dataset.
type Companies struct {
	List []Company
}

var companySeeds = []struct{ name, hq string }{
	{"International Business Machines", "Armonk"},
	{"Microsoft Corporation", "Redmond"},
	{"Google Incorporated", "Mountain View"},
	{"Oracle Corporation", "Redwood City"},
	{"Amazon.com Incorporated", "Seattle"},
	{"Apple Incorporated", "Cupertino"},
	{"Hewlett Packard Company", "Palo Alto"},
	{"Intel Corporation", "Santa Clara"},
	{"Cisco Systems", "San Jose"},
	{"SAP Aktiengesellschaft", "Walldorf"},
	{"Salesforce.com", "San Francisco"},
	{"Teradata Corporation", "Dayton"},
	{"Sybase Incorporated", "Dublin"},
	{"Netezza Corporation", "Marlborough"},
	{"Vertica Systems", "Billerica"},
	{"Greenplum Incorporated", "San Mateo"},
}

// NewCompanies builds n companies (cycling the seed list) with misspelled
// and abbreviated variants.
func NewCompanies(n int, seed int64) *Companies {
	rng := rand.New(rand.NewSource(seed))
	cs := &Companies{}
	for i := 0; i < n; i++ {
		s := companySeeds[i%len(companySeeds)]
		name := s.name
		if i >= len(companySeeds) {
			name = fmt.Sprintf("%s %d", s.name, i/len(companySeeds)+1)
		}
		c := Company{Canonical: name, HQ: s.hq}
		// Variants: abbreviation, typo, case damage.
		words := strings.Fields(name)
		if len(words) > 1 {
			var abbr []byte
			for _, w := range words {
				abbr = append(abbr, w[0])
			}
			c.Variants = append(c.Variants, string(abbr))
			c.Variants = append(c.Variants, words[0])
		}
		if len(name) > 4 {
			i := 1 + rng.Intn(len(name)-2)
			c.Variants = append(c.Variants, name[:i]+name[i+1:]) // dropped letter
		}
		c.Variants = append(c.Variants, strings.ToLower(name))
		cs.List = append(cs.List, c)
	}
	return cs
}

// CanonicalOf resolves a surface form to its canonical name ("" if none).
func (cs *Companies) CanonicalOf(surface string) string {
	n := normalizeLoose(surface)
	for _, c := range cs.List {
		if normalizeLoose(c.Canonical) == n {
			return c.Canonical
		}
		for _, v := range c.Variants {
			if normalizeLoose(v) == n {
				return c.Canonical
			}
		}
	}
	return ""
}

// Oracle builds the entity-resolution oracle: CROWDEQUAL answers are "yes"
// iff both surface forms map to the same canonical entity.
func (cs *Companies) Oracle() *Oracle {
	o := NewOracle()
	o.RegisterCompare(func(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth {
		if kind != crowd.TaskCompareEqual {
			return &crowd.SimTruth{Difficulty: 1}
		}
		lc, rc := cs.CanonicalOf(left), cs.CanonicalOf(right)
		ans := "no"
		if lc != "" && lc == rc {
			ans = "yes"
		}
		// Entity resolution is moderately hard for humans too.
		return &crowd.SimTruth{Truth: map[string]string{"answer": ans}, Difficulty: 0.25}
	})
	return o
}

// ---------------------------------------------------------------------------
// University: the SIGMOD CrowdProbe workload (professor directory).

// Professor is ground truth for one directory entry.
type Professor struct {
	Name       string
	Email      string
	Department string
}

// University is the professor-directory dataset.
type University struct {
	Professors []Professor
}

var departments = []string{"Computer Science", "EECS", "Statistics", "Mathematics", "Information School"}

// NewUniversity builds n professors with derivable emails.
func NewUniversity(n int, seed int64) *University {
	rng := rand.New(rand.NewSource(seed))
	u := &University{}
	for i := 0; i < n; i++ {
		first := string(rune('a' + rng.Intn(26)))
		last := fmt.Sprintf("prof%03d", i)
		u.Professors = append(u.Professors, Professor{
			Name:       fmt.Sprintf("%s. %s", strings.ToUpper(first), strings.ToUpper(last[:1])+last[1:]),
			Email:      fmt.Sprintf("%s%s@university.edu", first, last),
			Department: departments[rng.Intn(len(departments))],
		})
	}
	return u
}

// Oracle builds the probe oracle for the Professor table.
func (u *University) Oracle() *Oracle {
	o := NewOracle()
	o.RegisterProbe("Professor", func(known map[string]sqltypes.Value, ask []string) *crowd.SimTruth {
		name := known["name"].Str()
		for _, p := range u.Professors {
			if strings.EqualFold(p.Name, name) {
				truth := make(map[string]string)
				wrong := make(map[string][]string)
				for _, col := range ask {
					switch strings.ToLower(col) {
					case "email":
						truth[col] = p.Email
						wrong[col] = []string{strings.Replace(p.Email, "@", "@cs.", 1)}
					case "department":
						truth[col] = p.Department
						wrong[col] = departments
					}
				}
				return &crowd.SimTruth{Truth: truth, Wrong: wrong, Difficulty: 0.1}
			}
		}
		return nil
	})
	return o
}

// ---------------------------------------------------------------------------
// Restaurants: the demo's mobile scenario (§4, "nearby restaurant
// recommendations").

// Restaurant is one venue-area restaurant with a hidden quality score.
type Restaurant struct {
	Name    string
	Cuisine string
	Quality float64
}

// Restaurants is the mobile-platform dataset.
type Restaurants struct {
	List []Restaurant
}

var cuisines = []string{"Seafood", "Italian", "Thai", "Steakhouse", "Vegetarian", "Diner", "Sushi", "Mexican"}

// NewRestaurants builds n restaurants near the venue.
func NewRestaurants(n int, seed int64) *Restaurants {
	rng := rand.New(rand.NewSource(seed))
	r := &Restaurants{}
	for i := 0; i < n; i++ {
		r.List = append(r.List, Restaurant{
			Name:    fmt.Sprintf("%s Place %d", cuisines[i%len(cuisines)], i+1),
			Cuisine: cuisines[i%len(cuisines)],
			Quality: rng.Float64(),
		})
	}
	return r
}

// QualityRanking returns restaurant names best-first.
func (r *Restaurants) QualityRanking() []string {
	list := append([]Restaurant(nil), r.List...)
	sort.Slice(list, func(i, j int) bool { return list[i].Quality > list[j].Quality })
	names := make([]string, len(list))
	for i, x := range list {
		names[i] = x.Name
	}
	return names
}

// Oracle builds the restaurant-preference oracle (CROWDORDER) and a
// new-tuple handler for an open-world Restaurant CROWD table.
func (r *Restaurants) Oracle() *Oracle {
	o := NewOracle()
	o.RegisterTuple("Restaurant", func(prefill map[string]sqltypes.Value, i int) *crowd.SimTruth {
		rest := r.List[i%len(r.List)]
		return &crowd.SimTruth{Truth: map[string]string{
			"name":    rest.Name,
			"cuisine": rest.Cuisine,
		}, Difficulty: 0.05}
	})
	o.RegisterCompare(func(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth {
		if kind != crowd.TaskCompareOrder {
			return &crowd.SimTruth{Difficulty: 1}
		}
		var lq, rq float64 = -1, -1
		for _, x := range r.List {
			if x.Name == left {
				lq = x.Quality
			}
			if x.Name == right {
				rq = x.Quality
			}
		}
		if lq < 0 || rq < 0 {
			return &crowd.SimTruth{Difficulty: 1}
		}
		win := left
		if rq > lq {
			win = right
		}
		return &crowd.SimTruth{Truth: map[string]string{"answer": win},
			Difficulty: 0.15 + 0.5*(1-absF(lq-rq))}
	})
	return o
}

// ---------------------------------------------------------------------------

func normalizeLoose(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
