(** Wire primitives for the live runtime's framed message protocol.

    A frame is a 4-byte big-endian payload length followed by the
    payload. Payload encoding uses the fixed-width big-endian putters /
    getters here; floats travel as IEEE-754 bit patterns so values
    survive the round trip exactly (a replayed tentative transaction
    must reproduce the same float the mobile computed).

    The reader side works from a [string] and a mutable cursor; decode
    errors raise {!Malformed} with a diagnostic rather than silently
    misparsing — a server must survive a byte-garbage client. *)

exception Malformed of string

type 'a t = { encode : Buffer.t -> 'a -> unit; decode : reader -> 'a }
(** A symmetric pair of payload encoders: what a transport needs to move
    ['a] messages as bytes. *)

and reader

(** {1 Writing} *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_f64 : Buffer.t -> float -> unit
val put_string : Buffer.t -> string -> unit
(** u16 length + bytes. @raise Invalid_argument beyond 65535 bytes. *)

val frame : Buffer.t -> string
(** The buffer's contents as a length-prefixed frame (and the buffer is
    cleared for reuse). @raise Invalid_argument if the payload exceeds
    {!max_frame}. *)

(** {1 Reading} *)

val reader : string -> reader
val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
val get_f64 : reader -> float
val get_string : reader -> string
val expect_end : reader -> unit
(** @raise Malformed if payload bytes remain — trailing garbage means
    the peer and we disagree about the message layout. *)

val max_frame : int
(** Upper bound on a payload (16 MiB): a length prefix beyond this is
    treated as a protocol error, not an allocation request. *)
