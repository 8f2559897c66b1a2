module Codec = Dangers_runtime.Codec
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid

type request =
  | Hello
  | Set_connected of bool
  | Submit of Op.t list
  | Sync
  | Query of Oid.t
  | Stats
  | Shutdown
  | Metrics_snapshot
  | Metrics_prom

type stats = {
  commits : int;
  tentative_accepted : int;
  tentative_rejected : int;
  scope_violations : int;
  warnings_total : int;
  warnings : (string * int) list;
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
  | Metrics_json of string
  | Metrics_text of string

(* --- operation payloads --- *)

let put_oid buf oid = Codec.put_u32 buf (Oid.to_int oid)
let get_oid r = Oid.of_int (Codec.get_u32 r)

let encode_op buf = function
  | Op.Read oid ->
      Codec.put_u8 buf 0;
      put_oid buf oid
  | Op.Assign (oid, v) ->
      Codec.put_u8 buf 1;
      put_oid buf oid;
      Codec.put_f64 buf v
  | Op.Increment (oid, v) ->
      Codec.put_u8 buf 2;
      put_oid buf oid;
      Codec.put_f64 buf v
  | Op.Assign_from { target; source; offset } ->
      Codec.put_u8 buf 3;
      put_oid buf target;
      put_oid buf source;
      Codec.put_f64 buf offset

let decode_op r =
  match Codec.get_u8 r with
  | 0 -> Op.Read (get_oid r)
  | 1 ->
      let oid = get_oid r in
      Op.Assign (oid, Codec.get_f64 r)
  | 2 ->
      let oid = get_oid r in
      Op.Increment (oid, Codec.get_f64 r)
  | 3 ->
      let target = get_oid r in
      let source = get_oid r in
      Op.Assign_from { target; source; offset = Codec.get_f64 r }
  | tag -> raise (Codec.Malformed (Printf.sprintf "unknown op tag %d" tag))

let encode_ops buf ops =
  let n = List.length ops in
  if n > 0xffff then invalid_arg "Protocol: too many ops in one transaction";
  Codec.put_u16 buf n;
  List.iter (encode_op buf) ops

let decode_ops r =
  let n = Codec.get_u16 r in
  List.init n (fun _ -> decode_op r)

(* --- requests --- *)

let encode_request buf = function
  | Hello -> Codec.put_u8 buf 1
  | Set_connected state ->
      Codec.put_u8 buf 2;
      Codec.put_u8 buf (if state then 1 else 0)
  | Submit ops ->
      Codec.put_u8 buf 3;
      encode_ops buf ops
  | Sync -> Codec.put_u8 buf 4
  | Query oid ->
      Codec.put_u8 buf 5;
      put_oid buf oid
  | Stats -> Codec.put_u8 buf 6
  | Shutdown -> Codec.put_u8 buf 7
  | Metrics_snapshot -> Codec.put_u8 buf 8
  | Metrics_prom -> Codec.put_u8 buf 9

let decode_request r =
  let req =
    match Codec.get_u8 r with
    | 1 -> Hello
    | 2 -> Set_connected (Codec.get_u8 r <> 0)
    | 3 -> Submit (decode_ops r)
    | 4 -> Sync
    | 5 -> Query (get_oid r)
    | 6 -> Stats
    | 7 -> Shutdown
    | 8 -> Metrics_snapshot
    | 9 -> Metrics_prom
    | tag -> raise (Codec.Malformed (Printf.sprintf "unknown request tag %d" tag))
  in
  Codec.expect_end r;
  req

(* --- responses --- *)

let encode_results buf results =
  let n = List.length results in
  if n > 0xffff then invalid_arg "Protocol: too many results";
  Codec.put_u16 buf n;
  List.iter
    (fun (oid, v) ->
      put_oid buf oid;
      Codec.put_f64 buf v)
    results

let decode_results r =
  let n = Codec.get_u16 r in
  List.init n (fun _ ->
      let oid = get_oid r in
      (oid, Codec.get_f64 r))

let encode_response buf = function
  | Assigned { node; base_nodes; nodes } ->
      Codec.put_u8 buf 1;
      Codec.put_u16 buf node;
      Codec.put_u16 buf base_nodes;
      Codec.put_u16 buf nodes
  | Done -> Codec.put_u8 buf 2
  | Committed results ->
      Codec.put_u8 buf 3;
      encode_results buf results
  | Rejected reason ->
      Codec.put_u8 buf 4;
      Codec.put_string buf reason
  | Tentative -> Codec.put_u8 buf 5
  | Scope_violation -> Codec.put_u8 buf 6
  | Synced -> Codec.put_u8 buf 7
  | Value v ->
      Codec.put_u8 buf 8;
      Codec.put_f64 buf v
  | Stats_reply s ->
      Codec.put_u8 buf 9;
      Codec.put_u32 buf s.commits;
      Codec.put_u32 buf s.tentative_accepted;
      Codec.put_u32 buf s.tentative_rejected;
      Codec.put_u32 buf s.scope_violations;
      Codec.put_u32 buf s.warnings_total;
      let n = List.length s.warnings in
      if n > 0xffff then invalid_arg "Protocol: too many warning keys";
      Codec.put_u16 buf n;
      List.iter
        (fun (key, count) ->
          Codec.put_string buf key;
          Codec.put_u32 buf count)
        s.warnings
  | Error message ->
      Codec.put_u8 buf 10;
      Codec.put_string buf message
  | Metrics_json json ->
      Codec.put_u8 buf 11;
      Codec.put_string buf json
  | Metrics_text text ->
      Codec.put_u8 buf 12;
      Codec.put_string buf text

let decode_response r =
  let resp =
    match Codec.get_u8 r with
    | 1 ->
        let node = Codec.get_u16 r in
        let base_nodes = Codec.get_u16 r in
        Assigned { node; base_nodes; nodes = Codec.get_u16 r }
    | 2 -> Done
    | 3 -> Committed (decode_results r)
    | 4 -> Rejected (Codec.get_string r)
    | 5 -> Tentative
    | 6 -> Scope_violation
    | 7 -> Synced
    | 8 -> Value (Codec.get_f64 r)
    | 9 ->
        let commits = Codec.get_u32 r in
        let tentative_accepted = Codec.get_u32 r in
        let tentative_rejected = Codec.get_u32 r in
        let scope_violations = Codec.get_u32 r in
        let warnings_total = Codec.get_u32 r in
        let warning_keys = Codec.get_u16 r in
        let warnings =
          List.init warning_keys (fun _ ->
              let key = Codec.get_string r in
              (key, Codec.get_u32 r))
        in
        Stats_reply
          {
            commits;
            tentative_accepted;
            tentative_rejected;
            scope_violations;
            warnings_total;
            warnings;
          }
    | 10 -> Error (Codec.get_string r)
    | 11 -> Metrics_json (Codec.get_string r)
    | 12 -> Metrics_text (Codec.get_string r)
    | tag ->
        raise (Codec.Malformed (Printf.sprintf "unknown response tag %d" tag))
  in
  Codec.expect_end r;
  resp

let request : request Codec.t = { encode = encode_request; decode = decode_request }
let response : response Codec.t =
  { encode = encode_response; decode = decode_response }

(* --- framing over a file descriptor (blocking client side) --- *)

let to_frame codec value =
  let buf = Buffer.create 64 in
  codec.Codec.encode buf value;
  Codec.frame buf

let of_payload codec payload = codec.Codec.decode (Codec.reader payload)

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let read_exact fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  (try
     while !got < n do
       let k = Unix.read fd b !got (n - !got) in
       if k = 0 then raise Exit;
       got := !got + k
     done
   with Exit -> ());
  if !got = n then Some (Bytes.unsafe_to_string b) else None

let read_frame fd =
  match read_exact fd 4 with
  | None -> None
  | Some header ->
      let len =
        Char.code header.[0] lsl 24
        lor (Char.code header.[1] lsl 16)
        lor (Char.code header.[2] lsl 8)
        lor Char.code header.[3]
      in
      if len > Codec.max_frame then
        raise (Codec.Malformed (Printf.sprintf "frame of %d bytes" len));
      if len = 0 then Some "" else read_exact fd len

let send fd codec value = write_all fd (to_frame codec value)

let recv fd codec =
  Option.map (fun payload -> of_payload codec payload) (read_frame fd)

(* --- incremental frame splitter (non-blocking server side) --- *)

module Splitter = struct
  (* The unread bytes are [buf.[start .. stop)]. Frames are parsed in
     place from [start]; the tail moves to the front only once [start]
     passes half the buffer, so every byte is copied O(1) times. *)
  type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

  let initial_capacity = 4096

  (* A drained buffer larger than this (one that held a big frame) is
     dropped for a fresh [initial_capacity] one. *)
  let retained_capacity = 262144

  let create () = { buf = Bytes.create initial_capacity; start = 0; stop = 0 }
  let buffered t = t.stop - t.start
  let capacity t = Bytes.length t.buf

  let frame_length b pos =
    (Bytes.get_uint16_be b pos lsl 16) lor Bytes.get_uint16_be b (pos + 2)

  (* Move the unread bytes to the front of a [capacity]-byte buffer. *)
  let relocate t capacity =
    let len = buffered t in
    let dst = if capacity = Bytes.length t.buf then t.buf else Bytes.create capacity in
    Bytes.blit t.buf t.start dst 0 len;
    t.buf <- dst;
    t.start <- 0;
    t.stop <- len

  let feed t src len =
    let cap = Bytes.length t.buf in
    if t.stop + len > cap then begin
      let need = buffered t + len in
      if need <= cap then relocate t cap
      else
        (* Grow geometrically, jumping to the whole frame being assembled
           once doubling comes within half of it: a max_frame payload fed
           in small chunks allocates about twice its size in buffers. *)
        let frame =
          if buffered t >= 4 then 4 + frame_length t.buf t.start else max_int
        in
        let doubled = max need (2 * cap) in
        relocate t (if frame > need && 2 * doubled >= frame then frame else doubled)
    end;
    Bytes.blit src 0 t.buf t.stop len;
    t.stop <- t.stop + len

  let next t =
    if buffered t < 4 then None
    else
      let len = frame_length t.buf t.start in
      if len > Codec.max_frame then
        raise (Codec.Malformed (Printf.sprintf "frame of %d bytes" len))
      else if buffered t < 4 + len then None
      else begin
        let payload = Bytes.sub_string t.buf (t.start + 4) len in
        t.start <- t.start + 4 + len;
        if t.start = t.stop then begin
          t.start <- 0;
          t.stop <- 0;
          if Bytes.length t.buf > retained_capacity then
            t.buf <- Bytes.create initial_capacity
        end
        else if t.start > Bytes.length t.buf / 2 then relocate t (Bytes.length t.buf);
        Some payload
      end
end
