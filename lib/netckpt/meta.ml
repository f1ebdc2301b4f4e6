(* The checkpoint *meta-data*: the table of network connections of a pod
   (paper section 4).  Source and target are virtual addresses (they stay
   valid across migration); [state] reflects the connection; the PCB
   sequence numbers sent/recv/acked ride along because they are exactly the
   "minimal protocol specific state" the restart needs (section 5).

   At restart the Manager merges the per-pod tables, decides for every
   connection which endpoint will connect and which will accept, and hands
   each Agent back its entries extended with the peer's sequence numbers. *)

module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr

type conn_state =
  | Full  (* full-duplex established *)
  | Half_out  (* we have shut down our write side (FIN sent or queued) *)
  | Half_in  (* peer's FIN received *)
  | Closed_data  (* both directions shut, possibly unread data left *)
  | Connecting  (* transient, not yet established: re-initiated on restart *)

let conn_state_to_string = function
  | Full -> "full"
  | Half_out -> "half_out"
  | Half_in -> "half_in"
  | Closed_data -> "closed"
  | Connecting -> "connecting"

let conn_state_of_string = function
  | "full" -> Full
  | "half_out" -> Half_out
  | "half_in" -> Half_in
  | "closed" -> Closed_data
  | "connecting" -> Connecting
  | s -> Value.decode_error "conn_state %s" s

type role = Accept | Connect

type entry = {
  local : Addr.t;  (* virtual *)
  remote : Addr.t;  (* virtual *)
  state : conn_state;
  role : role;  (* provenance: did accept() create this endpoint? *)
  sent : int;  (* snd_nxt *)
  recv : int;  (* rcv_nxt *)
  acked : int;  (* snd_una *)
  sock_ref : int;  (* index into the pod image's socket list *)
}

type pod_meta = { pm_pod : int; pm_vip : Addr.ip; pm_entries : entry list }

let role_to_string = function Accept -> "accept" | Connect -> "connect"

let role_of_string = function
  | "accept" -> Accept
  | "connect" -> Connect
  | s -> Value.decode_error "role %s" s

let entry_to_value e =
  Value.assoc
    [ ("local", Addr.to_value e.local);
      ("remote", Addr.to_value e.remote);
      ("state", Value.str (conn_state_to_string e.state));
      ("role", Value.str (role_to_string e.role));
      ("sent", Value.int e.sent);
      ("recv", Value.int e.recv);
      ("acked", Value.int e.acked);
      ("sock_ref", Value.int e.sock_ref) ]

let entry_of_value v =
  {
    local = Addr.of_value (Value.field "local" v);
    remote = Addr.of_value (Value.field "remote" v);
    state = conn_state_of_string (Value.to_str (Value.field "state" v));
    role = role_of_string (Value.to_str (Value.field "role" v));
    sent = Value.to_int (Value.field "sent" v);
    recv = Value.to_int (Value.field "recv" v);
    acked = Value.to_int (Value.field "acked" v);
    sock_ref = Value.to_int (Value.field "sock_ref" v);
  }

let to_value pm =
  Value.assoc
    [ ("pod", Value.int pm.pm_pod);
      ("vip", Value.int pm.pm_vip);
      ("entries", Value.list entry_to_value pm.pm_entries) ]

let of_value v =
  {
    pm_pod = Value.to_int (Value.field "pod" v);
    pm_vip = Value.to_int (Value.field "vip" v);
    pm_entries = Value.to_list entry_of_value (Value.field "entries" v);
  }

let size_bytes pm = Zapc_codec.Wire.encoded_size (to_value pm)

(* --- restart-side instructions ---

   One per re-establishable connection endpoint, produced by the Manager
   from the merged tables.  [ri_peer_recv] is the peer's rcv_nxt: the data
   our send queue holds below it is already in the peer's receive queue and
   must be discarded before resending (Figure 4's overlap). *)

type restart_entry = {
  ri_local : Addr.t;  (* virtual *)
  ri_remote : Addr.t;  (* virtual *)
  ri_role : role;  (* final schedule decision *)
  ri_state : conn_state;
  ri_sock_ref : int;
  ri_peer_recv : int;
  ri_orphan : bool;  (* peer endpoint no longer exists: restore detached *)
}

let restart_entry_to_value e =
  Value.assoc
    [ ("local", Addr.to_value e.ri_local);
      ("remote", Addr.to_value e.ri_remote);
      ("role", Value.str (role_to_string e.ri_role));
      ("state", Value.str (conn_state_to_string e.ri_state));
      ("sock_ref", Value.int e.ri_sock_ref);
      ("peer_recv", Value.int e.ri_peer_recv);
      ("orphan", Value.bool e.ri_orphan) ]

let restart_entry_of_value v =
  {
    ri_local = Addr.of_value (Value.field "local" v);
    ri_remote = Addr.of_value (Value.field "remote" v);
    ri_role = role_of_string (Value.to_str (Value.field "role" v));
    ri_state = conn_state_of_string (Value.to_str (Value.field "state" v));
    ri_sock_ref = Value.to_int (Value.field "sock_ref" v);
    ri_peer_recv = Value.to_int (Value.field "peer_recv" v);
    ri_orphan = Value.to_bool (Value.field "orphan" v);
  }

(* The merged tables, indexed once so that pairing an entry with its peer
   is a table lookup instead of a scan over every entry of every pod. *)
module Ends = Hashtbl.Make (struct
  type t = Addr.t * Addr.t

  let equal (l1, r1) (l2, r2) = Addr.equal l1 l2 && Addr.equal r1 r2

  let hash ((l : Addr.t), (r : Addr.t)) =
    Hashtbl.hash ((((l.ip lsl 16) lor l.port) * 65599) + ((r.ip lsl 16) lor r.port))
end)

type index = {
  ix_pods : pod_meta list;
  ix_ends : (pod_meta * entry) Ends.t;
      (* (local, remote) -> its first entry, in pod order then entry order *)
  ix_vips : (Addr.ip, pod_meta) Hashtbl.t;  (* first pod per vip *)
  ix_socks : (int * int, entry) Hashtbl.t;  (* (pod, sock_ref) -> first entry *)
}

let index pms =
  let n = List.fold_left (fun acc pm -> acc + List.length pm.pm_entries) 0 pms in
  let ix =
    { ix_pods = pms; ix_ends = Ends.create (max 16 n); ix_vips = Hashtbl.create 16;
      ix_socks = Hashtbl.create (max 16 n) }
  in
  List.iter
    (fun pm ->
      if not (Hashtbl.mem ix.ix_vips pm.pm_vip) then Hashtbl.add ix.ix_vips pm.pm_vip pm;
      List.iter
        (fun e ->
          let ends = (e.local, e.remote) in
          if not (Ends.mem ix.ix_ends ends) then Ends.add ix.ix_ends ends (pm, e);
          let sock = (pm.pm_pod, e.sock_ref) in
          if not (Hashtbl.mem ix.ix_socks sock) then Hashtbl.add ix.ix_socks sock e)
        pm.pm_entries)
    pms;
  ix

(* The endpoint a connection pairs with: the first entry whose
   (local, remote) is this one's (remote, local). *)
let find_peer ix ~local ~remote = Ends.find_opt ix.ix_ends (remote, local)

let paired_peer ix (e : restart_entry) =
  match
    ( Hashtbl.find_opt ix.ix_vips e.ri_remote.ip,
      find_peer ix ~local:e.ri_local ~remote:e.ri_remote )
  with
  | Some owner, Some (pm, peer) when pm == owner -> Some (owner.pm_pod, peer)
  | _ -> None

let entry_of_sock ix ~pod ~sock_ref = Hashtbl.find_opt ix.ix_socks (pod, sock_ref)

(* Merge the per-pod tables and derive the restart schedule.

   Pairing: entries match when (local, remote) of one equals (remote, local)
   of the other.  For paired connections the endpoint whose socket was born
   by accept() accepts again — this automatically keeps connections that
   share a source port (they all came from the same listening socket) on
   the accepting side, the constraint of section 4.  Unpaired endpoints are
   restored detached (orphans); Connecting endpoints are skipped entirely
   (the blocked connect call re-executes after restart). *)
let schedule ix : (int * restart_entry list) list =
  let for_pod pm =
    let entries =
      List.filter_map
        (fun e ->
          match e.state with
          | Connecting -> None
          | Full | Half_out | Half_in | Closed_data ->
            (match find_peer ix ~local:e.local ~remote:e.remote with
             | Some (_, peer) when peer.state <> Connecting ->
               let role =
                 match (e.role, peer.role) with
                 | Accept, _ -> Accept
                 | Connect, Accept -> Connect
                 | Connect, Connect ->
                   (* no provenance information: break the tie determinately *)
                   if Addr.compare e.local e.remote < 0 then Accept else Connect
               in
               Some
                 { ri_local = e.local; ri_remote = e.remote; ri_role = role;
                   ri_state = e.state; ri_sock_ref = e.sock_ref;
                   ri_peer_recv = peer.recv; ri_orphan = false }
             | Some _ | None ->
               Some
                 { ri_local = e.local; ri_remote = e.remote; ri_role = e.role;
                   ri_state = e.state; ri_sock_ref = e.sock_ref; ri_peer_recv = e.acked;
                   ri_orphan = true }))
        pm.pm_entries
    in
    (pm.pm_pod, entries)
  in
  List.map for_pod ix.ix_pods

let build_schedule pms = schedule (index pms)
