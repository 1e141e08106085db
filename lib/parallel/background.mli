(** Background-domain lifecycle for long-running services.

    The metrics exposition server ([Obs.Http.run]) is a blocking loop;
    the weekly service puts it on one extra domain with {!spawn} and
    joins it on shutdown.  Unlike {!Pool}, a background task is a
    single long-lived function, not a job queue — the wrapper just
    captures any exception so {!join} can re-surface it instead of
    killing the process from a foreign domain. *)

type t

val spawn : (unit -> unit) -> t
(** Run [f] on a fresh domain.  If [Domain.spawn] itself fails (domain
    limit reached), [f] is NOT run and {!join} returns the spawn
    error — callers decide whether a missing background service is
    fatal. *)

val spawned : t -> bool
(** Whether the domain was actually created.  [false] means [f] never
    ran and {!join} will return the spawn error; callers that can fall
    back to running the work inline (e.g. the occasion pipeline) check
    this immediately after {!spawn}. *)

val join : t -> (unit, exn) result
(** Wait for the task to finish and return its outcome; idempotent
    (later calls return the first outcome).  Callers must make the task
    return first (e.g. [Obs.Http.stop]) or this blocks forever. *)
