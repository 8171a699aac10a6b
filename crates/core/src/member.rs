//! The cluster-member protocol core, sans I/O: crash recovery,
//! recovery leases, pin re-assertion, takeover admission, pin
//! journaling and the eviction-ownership rule.
//!
//! [`crate::dv`] decides what one member's cache and simulations do;
//! this module decides what the member *protocol* around the DV does.
//! Like the DV it owns no locks, sockets, files or clocks: callers pass
//! in the journal, the time (any ordered deadline type — `Instant` in
//! the daemon, `SimTime` in the virtual harness) and the DV operations
//! as closures, and get back verdicts, replies and WAL records. The
//! daemon ([`crate::server`]) wraps them in locks and I/O, the fault
//! harness ([`crate::vharness::FaultedClusterExperiment`]) in virtual
//! time, so scripted fault plans exercise the shipped protocol.

use crate::dv::{ClientId, ClusterMember, DvRouter};
use crate::model::StepMath;
use simstore::walog::{WalRecord, WalState};
use std::collections::HashMap;

/// One member's protocol identity: cluster position ([`ClusterMember::SOLO`]
/// standalone), the context's step math, and the recovery epoch (`0`
/// without durability) carried in `HelloOk` and on every WAL record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemberCore {
    /// Position in the cluster.
    pub cluster: ClusterMember,
    /// The context's cadences (ownership is per restart interval).
    pub steps: StepMath,
    /// This instance's recovery epoch.
    pub epoch: u64,
}

impl MemberCore {
    /// The member owning `key`'s restart interval (invalid keys belong
    /// to member 0, as in [`DvRouter::shard_of_key`]).
    pub fn owner_of(&self, key: u64) -> u32 {
        DvRouter::new(self.steps, self.cluster.size).shard_of_key(key) as u32
    }

    /// Is `key` a valid key of an interval another member owns? Always
    /// false outside clusters; invalid keys are nobody's.
    #[inline]
    pub fn is_foreign(&self, key: u64) -> bool {
        self.cluster.is_clustered()
            && self.steps.valid_key(key)
            && !self.cluster.owns_key(&self.steps, key)
    }

    /// Admission of an untagged acquire: a foreign key is refused — a
    /// correctly routing client never sends one, and serving it would
    /// double-produce the interval under a foreign budget slice.
    #[inline]
    pub fn acquire_admission(&self, key: u64) -> Result<(), String> {
        if !self.is_foreign(key) {
            return Ok(());
        }
        Err(format!(
            "key {key} belongs to cluster member {} (this is {} of {})",
            self.owner_of(key),
            self.cluster.index,
            self.cluster.size
        ))
    }

    /// The request-level check of a takeover acquire claiming
    /// `dead_member` is down: the member must be clustered, and the
    /// claim must name another member that exists.
    pub fn takeover_admission(&self, dead_member: u32, origin_epoch: u64) -> Result<(), String> {
        let claim = format!("takeover of member {dead_member} (takeover epoch {origin_epoch})");
        if !self.cluster.is_clustered() {
            Err("takeover acquire on an unclustered daemon".to_string())
        } else if dead_member >= self.cluster.size {
            Err(format!(
                "{claim}: cluster has {} members",
                self.cluster.size
            ))
        } else if dead_member == self.cluster.index {
            Err(format!(
                "{claim}: that member is this daemon, and it is alive"
            ))
        } else {
            Ok(())
        }
    }

    /// The per-key check of an admitted takeover acquire: a valid key
    /// must route to `dead_member`. `Ok(Some(interval))` means serve it
    /// once the foreign `interval` is primed; `Ok(None)` is an invalid
    /// key, left to the DV for the timeline error every member reports.
    pub fn takeover_key(
        &self,
        key: u64,
        dead_member: u32,
        origin_epoch: u64,
    ) -> Result<Option<u64>, String> {
        if !self.steps.valid_key(key) {
            return Ok(None);
        }
        let owner = self.owner_of(key);
        if owner == dead_member {
            Ok(Some(self.steps.interval_of(key)))
        } else if owner == self.cluster.index {
            Err(format!(
                "key {key} belongs to this member ({owner}); \
                 acquire it without the takeover tag"
            ))
        } else {
            Err(format!(
                "key {key} belongs to member {owner}, not to dead member \
                 {dead_member} (takeover epoch {origin_epoch})"
            ))
        }
    }

    /// The journal record of one pin granted to `client` on `key`. A
    /// foreign key can only be a takeover grant (untagged foreign
    /// acquires are refused first), so it is tagged `TakeoverPin`. The
    /// choice is stateless — deferred grants (production completions)
    /// carry no request context, but ownership is a function of the key.
    #[inline]
    pub fn pin_record(&self, client: ClientId, key: u64) -> WalRecord {
        let epoch = self.epoch;
        if self.is_foreign(key) {
            WalRecord::TakeoverPin { client, key, epoch }
        } else {
            WalRecord::PinAcquire { client, key, epoch }
        }
    }

    /// The journal record of `client`'s departure: voids all its pins
    /// and its lease.
    pub fn gone_record(&self, client: ClientId) -> WalRecord {
        WalRecord::ClientGone {
            client,
            epoch: self.epoch,
        }
    }

    /// Does evicting `key` delete its file from the shared storage, or
    /// only drop this member's cache entry? Only the owner deletes: a
    /// taker still caches a dead member's keys after that member
    /// restarts and re-primes them, and the taker's cache pressure must
    /// not delete files the home member serves. Solo daemons own every
    /// key.
    #[inline]
    pub fn deletes_on_evict(&self, key: u64) -> bool {
        !self.is_foreign(key)
    }

    /// A reconnecting session `client` re-asserting the pins it held as
    /// `prior_client` under `prior_epoch`. Every key comes back gone on
    /// a same-epoch reconnect (the dropped connection's `ClientGone`
    /// already released everything) and on an unknown lease. An expired
    /// lease not yet reaped is gone too, and the prior identity retires
    /// now — the claim removed the entry the expiry would have acted
    /// on. Under a live lease each key `transfer` moves from the prior
    /// identity is restored and journaled as the session's pin, the
    /// rest are gone, and the prior identity retires, releasing the
    /// restored pins nobody re-claimed. `claim` takes the prior lease
    /// out of the table (at most once, cross-epoch only).
    pub fn reassert(
        &self,
        client: ClientId,
        prior_client: ClientId,
        prior_epoch: u64,
        keys: &[u64],
        claim: impl FnOnce(ClientId) -> LeaseClaim,
        mut transfer: impl FnMut(u64) -> bool,
    ) -> Reasserted {
        let mut out = Reasserted::default();
        let all_gone = |reason: String| keys.iter().map(|&key| (key, reason.clone())).collect();
        if prior_epoch == self.epoch {
            out.gone = all_gone(format!(
                "same-epoch reconnect: pins of client {prior_client} were released \
                 when its connection dropped; re-acquire"
            ));
            return out;
        }
        let lease = claim(prior_client);
        if lease != LeaseClaim::Live {
            out.gone = all_gone(format!(
                "recovery lease of client {prior_client} (epoch {prior_epoch}) \
                 expired or unknown; re-acquire"
            ));
            out.lease_expired = lease == LeaseClaim::Expired;
        } else {
            for &key in keys {
                if transfer(key) {
                    out.restored.push(key);
                    out.wal.push(self.pin_record(client, key));
                } else {
                    out.gone.push((
                        key,
                        format!(
                            "key {key} was not recovered (evicted, or its pin record \
                             was lost to the crash); re-acquire"
                        ),
                    ));
                }
            }
        }
        out.retire_prior = lease != LeaseClaim::Unknown;
        if out.retire_prior {
            out.wal.push(self.gone_record(prior_client));
        }
        out
    }
}

/// What [`MemberCore::reassert`] decided.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reasserted {
    /// Keys whose pins moved to the new session, in request order.
    pub restored: Vec<u64>,
    /// Keys the client must re-acquire, with reasons.
    pub gone: Vec<(u64, String)>,
    /// Records to journal before the reply goes out.
    pub wal: Vec<WalRecord>,
    /// Run `ClientGone` for the prior identity in the DV.
    pub retire_prior: bool,
    /// The claim found an expired lease not yet reaped (a lease expiry).
    pub lease_expired: bool,
}

/// What claiming a recovery lease found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseClaim {
    /// Never granted, or already claimed or reaped.
    Unknown,
    /// Past its deadline but not yet reaped.
    Expired,
    /// Live.
    Live,
}

/// Recovery leases: prior-instance client → deadline by which it must
/// re-assert, else its restored pins are released. `D` is the caller's
/// clock; a lease is live strictly before its deadline.
#[derive(Clone, Debug)]
pub struct Leases<D> {
    deadlines: HashMap<ClientId, D>,
}

impl<D> Default for Leases<D> {
    fn default() -> Leases<D> {
        Leases {
            deadlines: HashMap::new(),
        }
    }
}

impl<D: Copy + Ord> Leases<D> {
    /// Leases each of `clients` until `deadline`.
    pub fn grant(&mut self, clients: &[ClientId], deadline: D) {
        for &client in clients {
            self.deadlines.insert(client, deadline);
        }
    }

    /// No lease is waiting for re-assertion.
    pub fn is_empty(&self) -> bool {
        self.deadlines.is_empty()
    }

    /// Takes `client`'s lease out of the table — exactly once: a second
    /// session presenting the same prior identity finds nothing.
    pub fn claim(&mut self, client: ClientId, now: D) -> LeaseClaim {
        match self.deadlines.remove(&client) {
            None => LeaseClaim::Unknown,
            Some(deadline) if now < deadline => LeaseClaim::Live,
            Some(_) => LeaseClaim::Expired,
        }
    }

    /// Removes and returns (sorted) every client whose lease is past
    /// its deadline at `now`; each must get one `ClientGone`.
    pub fn expire(&mut self, now: D) -> Vec<ClientId> {
        let mut gone: Vec<ClientId> = self
            .deadlines
            .iter()
            .filter(|&(_, &deadline)| deadline <= now)
            .map(|(&client, _)| client)
            .collect();
        gone.sort_unstable();
        for client in &gone {
            self.deadlines.remove(client);
        }
        gone
    }

    /// Drops every lease (the member crashed).
    pub fn clear(&mut self) {
        self.deadlines.clear();
    }
}

/// What [`recover`] rebuilt from a journal.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// Strictly above every epoch in the journal, even without pin
    /// restoration, so a cross-epoch `Reassert` is never mistaken for a
    /// same-instance reconnect.
    pub epoch: u64,
    /// The restored pins and the leases of their owners (the clients
    /// to lease, sorted), under `epoch`.
    pub state: WalState,
    /// The compaction snapshot of `state`: the journal then holds
    /// exactly the recovered state, so replay cost is bounded by live
    /// pins, not by uptime.
    pub snapshot: Vec<WalRecord>,
    /// Pin counts restored.
    pub pins_restored: u64,
}

/// Replays `journal` into the next epoch. With `restore_pins` (the
/// `--recover` flag) each journaled pin count is offered, in
/// `(client, key)` order, to `restore_pin` — the DV takes it iff the
/// key is resident, priming having rebuilt the cache from storage —
/// and the owners of restored pins are leased.
pub fn recover(
    journal: &[WalRecord],
    restore_pins: bool,
    mut restore_pin: impl FnMut(ClientId, u64) -> bool,
) -> Recovery {
    let replayed = WalState::replay(journal);
    let epoch = replayed.epoch + 1;
    let mut state = WalState {
        epoch,
        ..WalState::default()
    };
    let mut pins_restored = 0;
    if restore_pins {
        let mut pins: Vec<(&(u64, u64), &u32)> = replayed.pins.iter().collect();
        pins.sort_unstable();
        for (&(client, key), &count) in pins {
            for _ in 0..count {
                if !restore_pin(client, key) {
                    break;
                }
                *state.pins.entry((client, key)).or_insert(0) += 1;
                pins_restored += 1;
            }
        }
        state.leases = state.live_clients();
    }
    Recovery {
        epoch,
        snapshot: state.snapshot(epoch),
        state,
        pins_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// B = 4: member k of 3 owns intervals ≡ k (mod 3) — keys 1-4 are
    /// member 0's, 5-8 member 1's, 9-12 member 2's.
    fn member(index: u32, size: u32, epoch: u64) -> MemberCore {
        MemberCore {
            cluster: ClusterMember::new(index, size),
            steps: StepMath::new(1, 4, 64),
            epoch,
        }
    }

    fn reasons(out: &Reasserted) -> Vec<&str> {
        out.gone.iter().map(|(_, r)| r.as_str()).collect()
    }

    #[test]
    fn reassert_in_the_same_epoch_gives_everything_back_untouched() {
        let core = member(1, 3, 4);
        let out = core.reassert(
            9,
            3,
            4,
            &[5, 6],
            |_| panic!("no claim"),
            |_| panic!("no transfer"),
        );
        assert!(out.restored.is_empty());
        assert_eq!(out.gone.iter().map(|g| g.0).collect::<Vec<_>>(), vec![5, 6]);
        assert!(reasons(&out)
            .iter()
            .all(|r| r.contains("same-epoch reconnect")));
        assert!(out.wal.is_empty());
        assert!(!out.retire_prior && !out.lease_expired);
    }

    #[test]
    fn reassert_with_an_unknown_lease_retires_nothing() {
        let core = member(1, 3, 4);
        let mut leases: Leases<u64> = Leases::default();
        let out = core.reassert(
            9,
            3,
            2,
            &[5],
            |c| leases.claim(c, 0),
            |_| panic!("no transfer"),
        );
        assert_eq!(out.gone.len(), 1);
        assert!(reasons(&out)[0].contains("recovery lease of client 3"));
        assert!(out.wal.is_empty());
        assert!(!out.retire_prior && !out.lease_expired);
    }

    #[test]
    fn reassert_on_an_expired_unreaped_lease_retires_the_prior_client_once() {
        let core = member(1, 3, 4);
        let mut leases: Leases<u64> = Leases::default();
        leases.grant(&[3], 100);
        let out = core.reassert(
            9,
            3,
            2,
            &[5, 6],
            |c| leases.claim(c, 100),
            |_| panic!("no transfer"),
        );
        assert!(out.restored.is_empty());
        assert!(reasons(&out)
            .iter()
            .all(|r| r.contains("expired or unknown")));
        assert!(out.retire_prior && out.lease_expired);
        assert_eq!(
            out.wal,
            vec![WalRecord::ClientGone {
                client: 3,
                epoch: 4
            }]
        );
        // The claim took the lease: neither a second reassert nor the
        // reaper can run the departure again.
        assert!(leases.expire(u64::MAX).is_empty());
        let again = core.reassert(9, 3, 2, &[5], |c| leases.claim(c, 100), |_| false);
        assert!(again.wal.is_empty() && !again.retire_prior);
    }

    #[test]
    fn reassert_on_a_live_lease_transfers_what_recovery_kept() {
        let core = member(1, 3, 4);
        let mut leases: Leases<u64> = Leases::default();
        leases.grant(&[3], 100);
        let out = core.reassert(9, 3, 2, &[5, 6, 7], |c| leases.claim(c, 99), |key| key != 6);
        assert_eq!(out.restored, vec![5, 7]);
        assert_eq!(out.gone.len(), 1);
        assert_eq!(out.gone[0].0, 6);
        assert!(out.gone[0].1.contains("key 6 was not recovered"));
        assert!(out.retire_prior && !out.lease_expired);
        assert_eq!(
            out.wal,
            vec![
                WalRecord::PinAcquire {
                    client: 9,
                    key: 5,
                    epoch: 4
                },
                WalRecord::PinAcquire {
                    client: 9,
                    key: 7,
                    epoch: 4
                },
                WalRecord::ClientGone {
                    client: 3,
                    epoch: 4
                },
            ]
        );
    }

    #[test]
    fn takeover_is_refused_by_an_unclustered_daemon() {
        let solo = MemberCore {
            cluster: ClusterMember::SOLO,
            ..member(0, 3, 0)
        };
        let err = solo.takeover_admission(0, 1).unwrap_err();
        assert!(err.contains("unclustered daemon"), "{err}");
    }

    #[test]
    fn takeover_of_a_member_outside_the_cluster_is_refused() {
        let err = member(2, 3, 0).takeover_admission(3, 1).unwrap_err();
        assert!(
            err.contains("takeover of member 3") && err.contains("cluster has 3 members"),
            "{err}"
        );
    }

    #[test]
    fn takeover_naming_this_member_is_refused() {
        let err = member(2, 3, 0).takeover_admission(2, 1).unwrap_err();
        assert!(
            err.contains("takeover of member 2") && err.contains("this daemon"),
            "{err}"
        );
    }

    #[test]
    fn takeover_key_owned_by_this_member_is_refused() {
        let core = member(2, 3, 0);
        assert!(core.takeover_admission(1, 1).is_ok());
        let err = core.takeover_key(9, 1, 1).unwrap_err();
        assert!(err.contains("belongs to this member (2)"), "{err}");
    }

    #[test]
    fn takeover_key_owned_by_a_third_member_is_refused() {
        let err = member(2, 3, 0).takeover_key(2, 1, 1).unwrap_err();
        assert!(
            err.contains("belongs to member 0, not to dead member 1"),
            "{err}"
        );
    }

    #[test]
    fn takeover_key_of_the_dead_member_primes_its_interval() {
        let core = member(2, 3, 0);
        assert_eq!(core.takeover_key(6, 1, 1), Ok(Some(1)));
        assert_eq!(
            core.takeover_key(0, 1, 1),
            Ok(None),
            "invalid keys fall through"
        );
    }

    #[test]
    fn untagged_foreign_acquire_names_the_owner() {
        let core = member(1, 3, 0);
        assert!(core.acquire_admission(6).is_ok());
        assert!(
            core.acquire_admission(0).is_ok(),
            "invalid keys are nobody's"
        );
        let err = core.acquire_admission(2).unwrap_err();
        assert!(err.contains("belongs to cluster member 0"), "{err}");
    }

    #[test]
    fn pin_records_and_deletions_follow_ownership() {
        let core = member(2, 3, 7);
        assert_eq!(
            core.pin_record(4, 9),
            WalRecord::PinAcquire {
                client: 4,
                key: 9,
                epoch: 7
            }
        );
        assert_eq!(
            core.pin_record(4, 6),
            WalRecord::TakeoverPin {
                client: 4,
                key: 6,
                epoch: 7
            }
        );
        assert!(core.deletes_on_evict(9));
        assert!(
            !core.deletes_on_evict(6),
            "a taker never deletes a foreign file"
        );
        let solo = MemberCore {
            cluster: ClusterMember::SOLO,
            ..core
        };
        assert!((1..=64).all(|key| solo.deletes_on_evict(key)));
        assert!(matches!(
            solo.pin_record(4, 6),
            WalRecord::PinAcquire { .. }
        ));
    }

    #[test]
    fn leases_expire_at_their_deadline_and_claim_once() {
        let mut leases: Leases<u64> = Leases::default();
        leases.grant(&[5, 3], 10);
        leases.grant(&[8], 20);
        assert_eq!(leases.claim(8, 19), LeaseClaim::Live);
        assert_eq!(leases.claim(8, 0), LeaseClaim::Unknown);
        assert!(leases.expire(9).is_empty());
        assert_eq!(leases.expire(10), vec![3, 5]);
        assert!(leases.is_empty());
    }

    #[test]
    fn recovery_restores_resident_pins_and_leases_their_owners() {
        let journal = vec![
            WalRecord::Epoch { epoch: 2 },
            WalRecord::PinAcquire {
                client: 3,
                key: 5,
                epoch: 2,
            },
            WalRecord::PinAcquire {
                client: 3,
                key: 5,
                epoch: 2,
            },
            WalRecord::TakeoverPin {
                client: 4,
                key: 9,
                epoch: 2,
            },
            WalRecord::PinAcquire {
                client: 6,
                key: 7,
                epoch: 2,
            },
            WalRecord::ClientGone {
                client: 6,
                epoch: 2,
            },
        ];
        let mut offered = Vec::new();
        let rec = recover(&journal, true, |client, key| {
            offered.push((client, key));
            key != 9 // key 9 was evicted before the crash
        });
        assert_eq!(rec.epoch, 3);
        assert_eq!(offered, vec![(3, 5), (3, 5), (4, 9)]);
        assert_eq!(rec.pins_restored, 2);
        assert_eq!(rec.state.leases, &[3]);
        assert_eq!(
            rec.snapshot,
            vec![
                WalRecord::Epoch { epoch: 3 },
                WalRecord::Lease {
                    client: 3,
                    epoch: 3
                },
                WalRecord::PinAcquire {
                    client: 3,
                    key: 5,
                    epoch: 3
                },
                WalRecord::PinAcquire {
                    client: 3,
                    key: 5,
                    epoch: 3
                },
            ]
        );
        let cold = recover(&journal, false, |_, _| {
            panic!("no restore without --recover")
        });
        assert_eq!(cold.epoch, 3);
        assert!(cold.state.leases.is_empty());
        assert_eq!(cold.snapshot, vec![WalRecord::Epoch { epoch: 3 }]);
    }
}
