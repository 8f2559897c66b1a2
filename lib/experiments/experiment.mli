(** Experiment descriptors: one per paper table / figure / equation group.

    Each experiment regenerates the paper's predicted series and, where a
    system is involved, the matching measurement from the simulator; the
    result is a set of printable tables plus machine-readable findings
    (fitted exponents, growth ratios) that EXPERIMENTS.md records and the
    test-suite can assert on. *)

module Table = Dangers_util.Table

type finding = {
  label : string;
  expected : float;  (** the paper's value (exponent, ratio, count ...) *)
  actual : float;  (** what we measured *)
  tolerance : float;  (** |actual - expected| acceptable for "reproduced" *)
}

type result = {
  id : string;
  title : string;
  tables : Table.t list;
  findings : finding list;
  notes : string list;
}

type t = {
  id : string;  (** "T1", "F1", "E3", ... *)
  title : string;
  paper_ref : string;  (** where in the paper this comes from *)
  run : quick:bool -> seed:int -> Table.t list * finding list * string list;
      (** The experiment's tables, findings and notes, in that order.
          [quick] shrinks sweeps/durations for smoke runs; [seed] drives
          every random stream, so results are reproducible. *)
}

val run : t -> quick:bool -> seed:int -> result
(** [run e ~quick ~seed] runs [e] and labels its output with [e]'s id and
    title. *)

val finding_ok : finding -> bool
val pp_result : Format.formatter -> result -> unit

(** {1 Findings}

    Each constructor decides how its kind of finding is measured and
    encoded; experiments say only what a finding reads. *)

val exponent :
  string -> expected:float -> tolerance:float -> (float * float) list ->
  finding
(** [exponent label ~expected ~tolerance points] is the log-log slope of
    the (x, rate) [points], skipping non-positive rates; [nan] (so
    [[off]]) when fewer than two usable points remain, e.g. an event too
    rare to observe. *)

val ratio :
  string -> expected:float -> tolerance:float -> float -> float -> finding
(** [ratio label ~expected ~tolerance num den] measures [num /. den], or
    [nan] when [den <= 0]: a growth ratio over nothing measured is no
    ratio at all. *)

val holds : string -> bool -> finding
(** A yes/no claim, encoded as 1 (holds) or 0 against an expected 1 with
    tolerance 0. *)

val near : string -> expected:float -> tolerance:float -> float -> finding
(** A plain measured value against [expected]: exact counts (tolerance 0)
    and closed forms. *)

(** {1 Measurement helpers} *)

val summaries :
  string ->
  Scheme.spec ->
  seeds:int list ->
  warmup:float ->
  span:float ->
  Dangers_replication.Repl_stats.summary list
(** [summaries scheme spec ~seeds ~warmup ~span] simulates the point once
    per seed, in seed order. Read every metric of the point from this one
    list rather than re-running it per metric.
    @raise Invalid_argument on an unknown scheme or an invalid spec. *)

val mean : ('a -> float) -> 'a list -> float
(** [mean f runs] averages [f] over [runs] (left-to-right sum, then one
    division). @raise Invalid_argument on an empty list. *)

val first_point : 'a list -> 'a
(** Head of a sweep's point list; raises [Invalid_argument] when empty.
    Experiments use this instead of [List.nth _ 0] so the failure mode on
    an empty sweep is an explicit message rather than a bare exception. *)

val last_point : 'a list -> 'a
(** Final point of a sweep; raises [Invalid_argument] when empty. *)
