module Label = Histar_label.Label
module Metrics = Histar_metrics.Metrics

(* Counter semantics with elision (the default):
   [label.checks]   — §2 algebra actually executed (cache misses plus
                      un-summarized gate checks),
   [label.elided]   — decisions served without running the algebra
                      (cache hits and gate-summary hits),
   [label.denied]   — denials, elided or not, unchanged either way.
   With elision off ([~elide:false]) cache hits count as
   [label.checks] again, restoring the pre-elision accounting where
   checks = hits + misses. *)
let m_checks = Metrics.counter "label.checks"
let m_denied = Metrics.counter "label.denied"
let m_cache_hits = Metrics.counter "label.cache_hits"
let m_cache_misses = Metrics.counter "label.cache_misses"
let m_elided = Metrics.counter "label.elided"
let m_summary_invalidations = Metrics.counter "label.summary_invalidations"

type key = Label.t * Label.t

type t = {
  bound : int;
  elide : bool;
  observe_tbl : (key, bool) Hashtbl.t;
  modify_tbl : (key, bool) Hashtbl.t;
}

let create ?(bound = 8192) ?(elide = true) () =
  {
    bound;
    elide;
    observe_tbl = Hashtbl.create 256;
    modify_tbl = Hashtbl.create 256;
  }

let lookup t tbl key compute =
  let v =
    match Hashtbl.find_opt tbl key with
    | Some v ->
        Metrics.Counter.incr m_cache_hits;
        Metrics.Counter.incr (if t.elide then m_elided else m_checks);
        v
    | None ->
        Metrics.Counter.incr m_cache_misses;
        Metrics.Counter.incr m_checks;
        let v = compute () in
        if Hashtbl.length tbl >= t.bound then Hashtbl.reset tbl;
        Hashtbl.replace tbl key v;
        v
  in
  if not v then Metrics.Counter.incr m_denied;
  v

(* Exposed for the kernel's uncached check sites (gate invocation),
   which must report into the same counters. *)
let count_uncached_check ~allowed =
  Metrics.Counter.incr m_checks;
  if not allowed then Metrics.Counter.incr m_denied

(* A gate-invocation decision served from a flow summary: no algebra
   ran, but denials still count. *)
let count_elided ~allowed =
  Metrics.Counter.incr m_elided;
  if not allowed then Metrics.Counter.incr m_denied

let count_summary_invalidation () = Metrics.Counter.incr m_summary_invalidations

let observe t ~thread ~obj =
  lookup t t.observe_tbl (thread, obj) (fun () ->
      Label.can_observe ~thread ~obj)

let modify t ~thread ~obj =
  lookup t t.modify_tbl (thread, obj) (fun () -> Label.can_modify ~thread ~obj)

let elide_enabled t = t.elide

(* An independent cache with identical contents, so a forked kernel's
   hit/miss behaviour is bit-identical to the trunk's at the branch
   point (same cached entries, same reset threshold fill). *)
let copy t =
  {
    bound = t.bound;
    elide = t.elide;
    observe_tbl = Hashtbl.copy t.observe_tbl;
    modify_tbl = Hashtbl.copy t.modify_tbl;
  }
