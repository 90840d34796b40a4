(** Unified retry: bounded exponential backoff with decorrelated
    jitter, deadline-aware, counter-instrumented.

    Used by client connect and standby reconnect.  Jitter draws from the same
    minimal-standard LCG as {!Fault}, so a fixed [seed] makes a whole
    chaos run reproducible. *)

type policy = {
  label : string;  (** counter suffix: sleeps bump [retry.sleeps.<label>] *)
  max_attempts : int;  (** [<= 0] means unbounded *)
  base_s : float;  (** floor (and first) sleep *)
  cap_s : float;  (** per-sleep ceiling *)
  seed : int;  (** [0] = self-seed per process (pid + clock) *)
}

val policy :
  ?max_attempts:int ->
  ?base_s:float ->
  ?cap_s:float ->
  ?seed:int ->
  string ->
  policy
(** Defaults: unbounded, base 10ms, cap 1s, jittered, self-seeded. *)

type t
(** One live retry loop: attempt count, previous sleep, PRNG state. *)

val start : policy -> t
val attempt : t -> int
(** Failed attempts recorded so far. *)

val reset : t -> unit
(** Back to a fresh loop — call after a success in long-lived loops
    (standby reconnect) so the next failure starts from [base_s]. *)

val next_sleep : t -> float
(** The sleep the next {!pause} would take (consumes a jitter draw). *)

val pause : t -> bool
(** Record a failed attempt.  [false] once [max_attempts] is spent —
    the caller raises its own error.  Otherwise sleeps (bumping
    [retry.sleeps]) and returns [true].  Raises [Query_timeout] rather
    than sleeping through an armed {!Deadline}. *)

val run : policy -> retry_on:(exn -> bool) -> (unit -> 'a) -> 'a
(** [run p ~retry_on f] retries [f] while it raises an exception
    [retry_on] accepts and budget remains; re-raises otherwise. *)
