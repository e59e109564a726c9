// Package ipdb models the five commercial IP-to-location databases the
// paper compares against in §6.2 (Figure 21). The paper's observation —
// and the reason these databases cannot be trusted for proxies — is that
// they are far more likely to agree with the providers' claims than any
// active measurement, plausibly because providers influence the
// information the databases draw on, with some lag time.
//
// Each synthetic database therefore reports the provider's claimed
// country with a per-database, per-provider agreement probability
// (shaped like the paper's Figure 21 rows), and the true hosting country
// otherwise — the "default guess from IP address registry information"
// case, which for commercial data centers tends to be right.
package ipdb

import (
	"sort"

	"activegeo/internal/netsim"
	"activegeo/internal/proxy"
)

// Database is one IP-to-location database.
type Database struct {
	Name string
	// agreement maps a provider name to the probability the database
	// echoes that provider's claim.
	agreement map[string]float64
	// defaultAgreement applies to unknown providers.
	defaultAgreement float64
}

// databases reproduces the Figure 21 row shapes: all five databases
// agree with providers far more often than active geolocation does, but
// IP2Location and IPInfo are notably more skeptical of providers B/E.
var databases = []*Database{
	{Name: "MaxMind", defaultAgreement: 0.95, agreement: map[string]float64{
		"A": 0.99, "B": 0.99, "C": 0.99, "D": 0.82, "E": 0.99, "F": 1.00, "G": 1.00}},
	{Name: "IPInfo", defaultAgreement: 0.9, agreement: map[string]float64{
		"A": 0.97, "B": 0.39, "C": 0.97, "D": 0.79, "E": 0.93, "F": 0.93, "G": 1.00}},
	{Name: "IP2Location", defaultAgreement: 0.85, agreement: map[string]float64{
		"A": 0.91, "B": 0.47, "C": 0.95, "D": 0.77, "E": 0.65, "F": 0.97, "G": 0.91}},
	{Name: "Eureka", defaultAgreement: 0.95, agreement: map[string]float64{
		"A": 0.99, "B": 0.99, "C": 0.99, "D": 0.82, "E": 0.99, "F": 1.00, "G": 1.00}},
	{Name: "DB-IP", defaultAgreement: 0.9, agreement: map[string]float64{
		"A": 0.94, "B": 0.99, "C": 0.98, "D": 0.88, "E": 0.86, "F": 0.97, "G": 0.94}},
}

// Databases returns the five databases, sorted by name.
func Databases() []*Database {
	out := append([]*Database(nil), databases...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns the named database, or nil.
func ByName(name string) *Database {
	for _, db := range databases {
		if db.Name == name {
			return db
		}
	}
	return nil
}

// Lookup returns the database's country entry for a server. The answer
// is deterministic per (database, server address): real databases don't
// change their mind between queries.
func (d *Database) Lookup(s *proxy.Server) string {
	p := d.defaultAgreement
	if v, ok := d.agreement[s.Provider]; ok {
		p = v
	}
	h := netsim.NewKeyHash().Str(d.Name).Str(s.Host.Addr)
	if netsim.SeedFloat64s(int64(h), 1)[0] < p {
		return s.ClaimedCountry
	}
	return s.TrueCountry
}

// AgreementRate returns the fraction of the given servers for which the
// database agrees with the provider's claimed country — one cell of the
// Figure 21 matrix.
func (d *Database) AgreementRate(servers []*proxy.Server) float64 {
	if len(servers) == 0 {
		return 0
	}
	agree := 0
	for _, s := range servers {
		if d.Lookup(s) == s.ClaimedCountry {
			agree++
		}
	}
	return float64(agree) / float64(len(servers))
}
