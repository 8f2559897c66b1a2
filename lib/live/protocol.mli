(** The live service's client protocol: length-prefixed {!Dangers_runtime.Codec}
    frames over a stream socket.

    One request, one response, in order — except that a [Submit] whose
    transaction runs as a base transaction answers only when that
    transaction finishes (commit or reject), which is still before any
    later request from the same client is answered (the server processes a
    client's frames in order). A disconnected mobile's [Submit] answers
    [Tentative] immediately: the transaction was applied to the tentative
    versions and queued, exactly the paper's §7 contract.

    The protocol is deliberately tiny and versionless; it exists to drive
    the wall-clock two-tier service ({!Server}) from out-of-process
    clients ({!Load_gen}, the CI smoke job) and to demonstrate the
    {!Dangers_runtime.Codec} boundary a cross-machine transport would
    use. *)

module Codec = Dangers_runtime.Codec
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid

type request =
  | Hello  (** assign me a mobile node *)
  | Set_connected of bool  (** churn lever: drive my node's connectivity *)
  | Submit of Op.t list  (** run a transaction at my node *)
  | Sync  (** reconnect (if needed) and answer after my sync completes *)
  | Query of Oid.t  (** read the object's master copy *)
  | Stats  (** server-side counters *)
  | Shutdown  (** stop the server after answering *)
  | Metrics_snapshot
      (** scrape: the full registry as [dangers/metrics/v1] JSON *)
  | Metrics_prom  (** scrape: Prometheus text exposition *)

type stats = {
  commits : int;
  tentative_accepted : int;
  tentative_rejected : int;
  scope_violations : int;
  warnings_total : int;  (** warn-once registry total at reply time *)
  warnings : (string * int) list;  (** per-key warn counts, sorted *)
}

type response =
  | Assigned of { node : int; base_nodes : int; nodes : int }
  | Done
  | Committed of (Oid.t * float) list
  | Rejected of string
  | Tentative
  | Scope_violation
  | Synced
  | Value of float
  | Stats_reply of stats
  | Error of string
  | Metrics_json of string  (** a [dangers/metrics/v1] snapshot document *)
  | Metrics_text of string  (** a Prometheus 0.0.4 exposition *)

val request : request Codec.t
val response : response Codec.t

(** {1 Framing} *)

val to_frame : 'a Codec.t -> 'a -> string
(** Encode as a 4-byte big-endian length prefix plus payload. *)

val of_payload : 'a Codec.t -> string -> 'a
(** Decode one frame's payload. @raise Codec.Malformed on garbage. *)

val send : Unix.file_descr -> 'a Codec.t -> 'a -> unit
(** Blocking framed write. *)

val recv : Unix.file_descr -> 'a Codec.t -> 'a option
(** Blocking framed read; [None] on a clean EOF.
    @raise Codec.Malformed on garbage or an oversized frame. *)

(** Reassemble frames from arbitrarily chunked reads (the server's
    select loop). Splitting is amortised linear in the bytes fed, and the
    buffer stays within about twice the frame in flight plus one chunk:
    a client that always ends a read mid-frame cannot grow it. *)
module Splitter : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> unit
  (** [feed t chunk len] appends [chunk]'s first [len] bytes, copying
      them, so the caller may reuse [chunk] at once.
      @raise Invalid_argument if [len] is outside [chunk]. *)

  val next : t -> string option
  (** The next complete payload, if one is buffered.
      @raise Codec.Malformed on an oversized frame. *)

  val buffered : t -> int
  (** Bytes fed but not yet returned by {!next}. *)

  val capacity : t -> int
  (** Size of the internal buffer. *)
end
