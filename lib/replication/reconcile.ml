module Oid = Dangers_storage.Oid
module Timestamp = Dangers_storage.Timestamp

type update = {
  oid : Oid.t;
  old_stamp : Timestamp.t;
  value : float;
  delta : float option;
  stamp : Timestamp.t;
  origin : int;
}

type decision = Keep_current | Take_incoming | Merge of float | Drop

type rule =
  | Ignore
  | Timestamp_priority
  | Site_priority of int array
  | Value_priority of [ `Max | `Min ]
  | Additive
  | Custom of
      (current_value:float -> current_stamp:Timestamp.t -> update -> decision)

let by_timestamp ~current_stamp incoming =
  if Timestamp.newer incoming.stamp ~than:current_stamp then Take_incoming
  else Keep_current

let site_rank priorities site =
  let rec find i =
    if i >= Array.length priorities then Array.length priorities
    else if priorities.(i) = site then i
    else find (i + 1)
  in
  find 0

let resolve rule ~current_value ~current_stamp incoming =
  match rule with
  | Ignore -> Drop
  | Timestamp_priority -> by_timestamp ~current_stamp incoming
  | Site_priority priorities ->
      (* The current value's provenance is its stamp's node. *)
      let current_site = Timestamp.node current_stamp in
      let incoming_rank = site_rank priorities incoming.origin in
      let current_rank = site_rank priorities current_site in
      if incoming_rank < current_rank then Take_incoming
      else if incoming_rank > current_rank then Keep_current
      else by_timestamp ~current_stamp incoming
  | Value_priority `Max ->
      if incoming.value > current_value then Take_incoming else Keep_current
  | Value_priority `Min ->
      if incoming.value < current_value then Take_incoming else Keep_current
  | Additive ->
      (match incoming.delta with
      | Some delta -> Merge (current_value +. delta)
      | None -> by_timestamp ~current_stamp incoming)
  | Custom f -> f ~current_value ~current_stamp incoming

let rule_name = function
  | Ignore -> "ignore"
  | Timestamp_priority -> "timestamp-priority"
  | Site_priority _ -> "site-priority"
  | Value_priority `Max -> "value-priority-max"
  | Value_priority `Min -> "value-priority-min"
  | Additive -> "additive"
  | Custom _ -> "custom"

let lossless = function
  | Additive -> true
  | Ignore | Timestamp_priority | Site_priority _ | Value_priority _ | Custom _ ->
      false
