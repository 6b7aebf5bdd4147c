(* The budget ledger: counts of charged rounds per client, composed
   through Theorem 2 on demand.  Storing counts (not running guarantees)
   keeps the ledger exact: the reported spend is always the closed-form
   composition of the per-round guarantee, never an accumulation of
   floating-point increments. *)

open Vuvuzela_dp

type entry = {
  client : bytes;
  mutable conv_rounds : int;
  mutable dial_rounds : int;
  mutable warned : bool;
}

type t = {
  conv : Mechanism.guarantee;  (* per conversation round *)
  dial : Mechanism.guarantee;  (* per dialing round *)
  d : float;
  warn_eps : float option;
  entries : (string, entry) Hashtbl.t;  (* keyed by the raw pk bytes *)
  mutable order : entry list;  (* first-charge order, newest first *)
}

let create ?(d = Composition.default_d) ?warn_eps ~conv ~dial () =
  if d <= 0. then invalid_arg "Ledger.create: d must be positive";
  { conv; dial; d; warn_eps; entries = Hashtbl.create 64; order = [] }

let warn_eps t = t.warn_eps

let zero = { Mechanism.eps = 0.; delta = 0. }

let compose_rounds t per_round k =
  if k = 0 then zero else Composition.compose ~k ~d:t.d per_round

let spent_of t ~conv_rounds ~dial_rounds =
  let c = compose_rounds t t.conv conv_rounds in
  let g = compose_rounds t t.dial dial_rounds in
  { Mechanism.eps = c.Mechanism.eps +. g.Mechanism.eps;
    delta = c.Mechanism.delta +. g.Mechanism.delta }

let entry t client =
  let key = Bytes.to_string client in
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let e =
        { client = Bytes.copy client; conv_rounds = 0; dial_rounds = 0;
          warned = false }
      in
      Hashtbl.replace t.entries key e;
      t.order <- e :: t.order;
      e

let charge t ~client ~dialing =
  let e = entry t client in
  if dialing then e.dial_rounds <- e.dial_rounds + 1
  else e.conv_rounds <- e.conv_rounds + 1;
  match t.warn_eps with
  | Some limit when not e.warned ->
      let g = spent_of t ~conv_rounds:e.conv_rounds ~dial_rounds:e.dial_rounds in
      if g.Mechanism.eps > limit then begin
        e.warned <- true;
        true
      end
      else false
  | _ -> false

let clients t = Hashtbl.length t.entries

let rounds t ~client =
  match Hashtbl.find_opt t.entries (Bytes.to_string client) with
  | Some e -> (e.conv_rounds, e.dial_rounds)
  | None -> (0, 0)

let spent t ~client =
  let conv_rounds, dial_rounds = rounds t ~client in
  spent_of t ~conv_rounds ~dial_rounds

let worst t =
  List.fold_left
    (fun acc e ->
      let g = spent_of t ~conv_rounds:e.conv_rounds ~dial_rounds:e.dial_rounds in
      if g.Mechanism.eps > acc.Mechanism.eps then g else acc)
    zero t.order

let over_budget t =
  List.fold_left (fun n e -> if e.warned then n + 1 else n) 0 t.order
