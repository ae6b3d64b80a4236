package workload

import (
	"fmt"
	"math/rand"
	"time"

	"u1/internal/client"
	"u1/internal/protocol"
)

// Attack describes one DDoS event (§5.4): a single account's credentials are
// distributed to thousands of desktop clients that use U1 to spread illegal
// content — the storage-leeching pattern. The attack manifests as a storm of
// session/authentication requests (5–15× normal) and a much larger storm of
// API server activity (up to 245×), until operators delete the fraudulent
// user and content, after which activity decays within the hour.
type Attack struct {
	// Day is the 0-based trace day of the attack.
	Day int
	// Hour is the attack start hour within the day.
	Hour float64
	// Duration is how long new attack sessions keep arriving.
	Duration time.Duration
	// APIFactor multiplies the baseline per-hour API server activity
	// (the paper's 4.6×, 245×, 6.7×).
	APIFactor float64
	// AuthFactor multiplies the baseline per-hour session/auth request
	// rate (the paper's 5–15×).
	AuthFactor float64
}

// DefaultAttacks reproduces the three attacks of Fig. 5. The original trace
// started January 11, 2014; the attacks fell on January 15 (day 4), January
// 16 (day 5) and February 6 (day 26).
func DefaultAttacks() []Attack {
	return []Attack{
		{Day: 4, Hour: 10, Duration: 2 * time.Hour, APIFactor: 4.6, AuthFactor: 5},
		{Day: 5, Hour: 13, Duration: 2 * time.Hour, APIFactor: 245, AuthFactor: 15},
		{Day: 26, Hour: 15, Duration: 2 * time.Hour, APIFactor: 6.7, AuthFactor: 7},
	}
}

// Baseline activity estimates used to size attacks relative to legitimate
// load. These constants approximate what the calibrated profile produces per
// user; the analysis reports the multipliers actually achieved.
const (
	baseOpsPerUserHour      = 0.40 // API server requests per user per hour
	baseSessionsPerUserHour = 0.02 // session arrivals per user per hour
)

func (g *Generator) baselineOpsPerHour() float64 {
	return baseOpsPerUserHour * float64(g.cfg.Users)
}

func (g *Generator) baselineSessionsPerHour() float64 {
	return baseSessionsPerUserHour * float64(g.cfg.Users)
}

// scheduleAttack installs one attack: the fraudulent account uploads the
// content to distribute just before the session storm starts, thousands of
// clients hammer the service, and at the end of the window operators revoke
// the account and delete the content (the manual countermeasure of §5.4).
func (g *Generator) scheduleAttack(a Attack) {
	start := g.cfg.Start.Add(time.Duration(a.Day)*24*time.Hour +
		time.Duration(a.Hour*float64(time.Hour)))
	if !start.Before(g.end) || start.Before(g.cfg.Start) {
		return
	}
	hours := a.Duration.Hours()
	sessions := int(a.AuthFactor * g.baselineSessionsPerHour() * hours)
	if sessions < 1 {
		sessions = 1
	}
	extraOps := (a.APIFactor - 1) * g.baselineOpsPerHour() * hours
	opsPerSession := int(extraOps/float64(sessions)) - 4 // minus session overhead
	if opsPerSession < 1 {
		opsPerSession = 1
	}

	attackerID := protocol.UserID(1_000_000 + a.Day)
	token, err := g.c.Auth.Issue(attackerID)
	if err != nil {
		return
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed + int64(a.Day)*104729))

	// Attacks are cluster-scoped, not per-user: every attack event runs on
	// shard 0, so the whole storm keeps one deterministic event order.
	eng := g.shard0().eng
	seedAttempts := 0
	var seedContent func()
	seedContent = func() {
		// The attacker seeds the content: a ~100 KB payload every attack
		// client downloads repeatedly. Seeding retries transient failures
		// (the injected auth failure rate applies to the attacker too) on a
		// one-minute backoff: a storm must not silently vanish on one bad
		// draw. The success path is untouched — retries consume nothing from
		// the attack's RNG stream, so first-try seeds reproduce exactly the
		// schedule they always did.
		retry := func() {
			if seedAttempts++; seedAttempts < 5 {
				eng.After(time.Minute, seedContent)
			}
		}
		tr := client.NewDirectTransport(g.c.LeastLoaded, eng.Clock())
		seeder := client.New(tr)
		if err := seeder.Connect(token); err != nil {
			retry()
			return
		}
		root, ok := seeder.RootVolume()
		if !ok {
			return
		}
		h := protocol.HashBytes([]byte(fmt.Sprintf("warez-%d", a.Day)))
		node, _, err := seeder.UploadSized(root, 0, "installer.zip", h, 100<<10, 100<<10)
		seeder.Disconnect() //nolint:errcheck
		if err != nil {
			retry()
			return
		}

		// Session storm: Poisson arrivals over the window, measured from the
		// attack's nominal start; arrivals a late seed has already passed run
		// at the seeding instant (the engine never moves backwards).
		for i := 0; i < sessions; i++ {
			offset := time.Duration(rng.Float64() * float64(a.Duration))
			eng.At(start.Add(offset), func() {
				g.attackSession(token, root, node.ID, opsPerSession, rng.Int63())
			})
		}

		// Operator response at the end of the window: revoke credentials and
		// delete the content. In-flight sessions fail from here on, so the
		// visible activity decays within the hour, as observed.
		eng.At(start.Add(a.Duration), func() {
			g.c.Auth.RevokeUser(attackerID)
			// Flush the fleet's validation caches along with the revocation,
			// or servers with a warm cache would keep admitting the leeches
			// for the cache TTL (and which servers are warm depends on
			// placement history — the determinism contract forbids that).
			g.c.DropCachedToken(token)
			cleanup := client.New(client.NewDirectTransport(g.c.LeastLoaded, eng.Clock()))
			// The operator path uses a fresh token (admin-equivalent).
			adminToken, err := g.c.Auth.Issue(attackerID)
			if err != nil {
				return
			}
			if err := cleanup.Connect(adminToken); err != nil {
				return
			}
			cleanup.Unlink(root, node.ID) //nolint:errcheck
			cleanup.Disconnect()          //nolint:errcheck
			g.c.Auth.RevokeUser(attackerID)
		})
	}
	eng.At(start, seedContent)
}

// attackSession is one leeching client: authenticate with the shared
// credentials, download the payload over and over, disconnect.
func (g *Generator) attackSession(token string, vol protocol.VolumeID, node protocol.NodeID, ops int, seed int64) {
	sh := g.shard0()
	tr := client.NewDirectTransport(g.c.LeastLoaded, sh.eng.Clock())
	cli := client.New(tr)
	cli.Retry = g.cfg.Retry
	if err := cli.Connect(token); err != nil {
		sh.totals.FailedAuths++
		return
	}
	sh.totals.Sessions++
	sh.totals.AttackSessions++

	// A session owns its source until it disconnects (its steps interleave
	// with other sessions', so they cannot share one). A math/rand source is
	// 5 KB and a storm is thousands of sessions of which a fraction overlap,
	// so a finished session's source serves the next one: re-seeding yields
	// the stream a fresh source of that seed would.
	var rng *rand.Rand
	if n := len(g.idleAttackRngs); n > 0 {
		rng = g.idleAttackRngs[n-1]
		g.idleAttackRngs = g.idleAttackRngs[:n-1]
		rng.Seed(seed)
	} else {
		rng = rand.New(rand.NewSource(seed))
	}
	leave := func() {
		cli.Disconnect() //nolint:errcheck
		g.idleAttackRngs = append(g.idleAttackRngs, rng)
	}

	var left = ops
	var step func()
	step = func() {
		if left <= 0 {
			leave()
			return
		}
		left--
		if _, err := cli.Download(vol, node); err != nil {
			// Content deleted by operators: the leech gives up.
			leave()
			return
		}
		sh.eng.After(time.Duration(rng.ExpFloat64()*2*float64(time.Second)), step)
	}
	step()
}
