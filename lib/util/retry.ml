(* Unified retry with bounded exponential backoff and decorrelated
   jitter.

   Client connect and standby reconnect share it.  Without jitter
   every client that lost the primary at the same instant would retry
   in lockstep and hammer the survivor in waves.  The discipline:

     - exponential growth capped at [cap_s];
     - decorrelated jitter (AWS style): each sleep is drawn uniformly
       from [base_s, prev * 3], so consecutive sleeps de-synchronise
       even across processes started at the same time;
     - deterministic under a fixed [seed] (tests and the chaos
       harness need reproducible schedules);
     - deadline-aware: an armed statement deadline fires between
       sleeps rather than being slept through;
     - instrumented: every sleep bumps [retry.sleeps] and
       [retry.sleeps.<label>].

   The jitter PRNG is the same minimal-standard LCG as {!Fault} so a
   seeded chaos run replays byte-identically. *)

type policy = {
  label : string;
  max_attempts : int; (* <= 0 means unbounded *)
  base_s : float;
  cap_s : float;
  seed : int;
}

let policy ?(max_attempts = 0) ?(base_s = 0.01) ?(cap_s = 1.0) ?(seed = 0) label =
  { label; max_attempts; base_s; cap_s; seed }

type t = {
  p : policy;
  mutable attempt : int; (* completed (failed) attempts so far *)
  mutable prev_sleep_s : float;
  mutable rng : int;
}

(* Seed 0 asks for per-process self-seeding: jitter exists to spread
   *distinct* processes apart, so a deterministic default would defeat
   it.  PID + monotonic clock bits is plenty — this is not crypto. *)
let self_seed () =
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  (Unix.getpid () * 7919) lxor (t land 0xFFFFFF)

let start p =
  let seed = if p.seed = 0 then self_seed () else p.seed in
  { p; attempt = 0; prev_sleep_s = 0.0; rng = (2 * abs seed) + 1 }

let attempt t = t.attempt
let reset t =
  t.attempt <- 0;
  t.prev_sleep_s <- 0.0

let next_rng t =
  t.rng <- t.rng * 48271 mod 0x7FFFFFFF;
  t.rng

let uniform t lo hi =
  if hi <= lo then lo
  else lo +. (float_of_int (next_rng t) /. 2147483647.0 *. (hi -. lo))

(* the sleep the next [pause] would take, pure of the RNG draw *)
let next_sleep t =
  let p = t.p in
  let expo = p.base_s *. (2.0 ** float_of_int (min t.attempt 16)) in
  let raw =
    if t.prev_sleep_s <= 0.0 then uniform t p.base_s (expo *. 2.0)
    else uniform t p.base_s (t.prev_sleep_s *. 3.0)
  in
  Float.min t.p.cap_s (Float.max p.base_s raw)

(* Record a failed attempt.  Returns [false] once the budget is spent
   (the caller raises its own error); otherwise sleeps and returns
   [true].  An armed statement deadline is honoured: we never sleep
   past work the engine is no longer allowed to do. *)
let pause t =
  t.attempt <- t.attempt + 1;
  if t.p.max_attempts > 0 && t.attempt >= t.p.max_attempts then false
  else begin
    Deadline.check_now ();
    let s = next_sleep t in
    t.prev_sleep_s <- s;
    Counters.bump Counters.retry_sleeps;
    Counters.bump ("retry.sleeps." ^ t.p.label);
    (try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Deadline.check_now ();
    true
  end

(* Run [f] under the policy: retry while [retry_on] accepts the
   exception and [pause] grants budget; re-raise the last failure
   otherwise. *)
let run p ~retry_on f =
  let t = start p in
  let rec go () =
    try f () with
    | e when retry_on e ->
      if pause t then go () else raise e
  in
  go ()
