(* The pod's virtual private namespace.

   Resource identifiers visible to processes inside a pod are virtual: PIDs
   and network addresses stay constant for the life of the application, and
   the namespace remaps them to the real identifiers of whatever node the
   pod currently runs on.  This is what decouples the application from the
   host and makes migration to nodes with different PID spaces and IP
   subnets possible (paper section 3). *)

module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr

(* --- the vip directory ---

   One per cluster.  It holds the two things the address maps of that
   cluster's pods share: the live binding of every pod instance, and the
   latest gratuitous-ARP rebind of every vip.  Events are stamped with one
   clock, so a namespace answers as if it had been rewritten by every rebind
   since its map was installed — and by none before — without any namespace
   ever being visited by a rebind. *)

type binding = {
  b_pod : int;
  b_vip : Addr.ip;
  b_rip : Addr.ip;
  mutable b_died : int;  (* stamp of the instance's departure; [max_int] while live *)
}

type directory = {
  mutable clock : int;
  rebound : (Addr.ip, int * Addr.ip) Hashtbl.t;  (* vip -> latest rebind (stamp, rip) *)
  targets : (Addr.ip, int) Hashtbl.t;  (* rip -> stamp of the latest rebind onto it *)
  mutable last_rebind : int;
  by_pod : (int, binding) Hashtbl.t;  (* pod_id -> its live instance *)
  mutable live : binding list;  (* newest first; departed entries linger until compaction *)
  mutable departed : int;  (* departed entries still in [live] *)
}

let directory () =
  { clock = 0; rebound = Hashtbl.create 64; targets = Hashtbl.create 64; last_rebind = 0;
    by_pod = Hashtbl.create 64; live = []; departed = 0 }

let tick d =
  d.clock <- d.clock + 1;
  d.clock

let depart d b =
  if b.b_died = max_int then begin
    b.b_died <- tick d;
    d.departed <- d.departed + 1;
    (* drop departed entries once they are the majority: namespaces that
       captured the old list keep it, new ones get the compact one *)
    if d.departed > Hashtbl.length d.by_pod then begin
      d.live <- List.filter (fun b -> b.b_died = max_int) d.live;
      d.departed <- 0
    end
  end

let enter d ~pod_id ~vip ~rip =
  (match Hashtbl.find_opt d.by_pod pod_id with Some old -> depart d old | None -> ());
  let b = { b_pod = pod_id; b_vip = vip; b_rip = rip; b_died = max_int } in
  ignore (tick d);
  Hashtbl.replace d.by_pod pod_id b;
  d.live <- b :: d.live;
  b

let leave d b =
  match Hashtbl.find_opt d.by_pod b.b_pod with
  | Some live when live == b ->
    Hashtbl.remove d.by_pod b.b_pod;
    depart d b
  | Some _ | None -> ()

let rebind_vip d ~vip ~rip =
  let s = tick d in
  Hashtbl.replace d.rebound vip (s, rip);
  Hashtbl.replace d.targets rip s;
  d.last_rebind <- s

(* --- the namespace --- *)

type t = {
  vpid_to_rpid : (int, int) Hashtbl.t;
  rpid_to_vpid : (int, int) Hashtbl.t;
  mutable next_vpid : int;
  dir : directory;
  (* vip -> rip as installed, in install order (the Agent installs the
     application's map; a restored pod's is shared with its whole restore) *)
  mutable map : (Addr.ip * Addr.ip) list;
  (* the directory's live list as it stood at install time, consulted after
     [map]; [] unless the map was installed with it *)
  mutable live : binding list;
  mutable installed : int;  (* stamp of the install *)
}

let create dir =
  { vpid_to_rpid = Hashtbl.create 8; rpid_to_vpid = Hashtbl.create 8; next_vpid = 1;
    dir; map = []; live = []; installed = 0 }

let directory_of t = t.dir
let next_vpid t = t.next_vpid
let set_next_vpid t n = t.next_vpid <- n

(* --- PIDs --- *)

let fresh_vpid t rpid =
  let vpid = t.next_vpid in
  t.next_vpid <- t.next_vpid + 1;
  Hashtbl.replace t.vpid_to_rpid vpid rpid;
  Hashtbl.replace t.rpid_to_vpid rpid vpid;
  vpid

let bind_vpid t ~vpid ~rpid =
  Hashtbl.replace t.vpid_to_rpid vpid rpid;
  Hashtbl.replace t.rpid_to_vpid rpid vpid;
  if vpid >= t.next_vpid then t.next_vpid <- vpid + 1

let rpid_of_vpid t vpid = Hashtbl.find_opt t.vpid_to_rpid vpid
let vpid_of_rpid t rpid = Hashtbl.find_opt t.rpid_to_vpid rpid

let forget_rpid t rpid =
  match vpid_of_rpid t rpid with
  | None -> ()
  | Some vpid ->
    Hashtbl.remove t.rpid_to_vpid rpid;
    Hashtbl.remove t.vpid_to_rpid vpid

let vpids t =
  Hashtbl.fold (fun vpid _ acc -> vpid :: acc) t.vpid_to_rpid [] |> List.sort Int.compare

(* --- network addresses --- *)

let set_vip_map ?(live = false) t map =
  t.map <- map;
  t.live <- (if live then t.dir.live else []);
  t.installed <- tick t.dir

(* The rip this namespace resolves an entry (vip, [r]) to: the latest
   rebind of [vip], provided it came after the install (a later install
   shadows it), else [r] as installed. *)
let current t vip r =
  if t.installed > t.dir.last_rebind then r
  else
    match Hashtbl.find_opt t.dir.rebound vip with
    | Some (s, rip) when s > t.installed -> rip
    | Some _ | None -> r

let visible t b = b.b_died > t.installed

(* Lookups scan [map], then the live bindings visible at install; the
   first entry in that order wins.  The scans are top-level recursions so a
   lookup allocates nothing. *)

let rec rip_in_live t vip = function
  | [] -> vip
  | b :: rest ->
    if Addr.equal_ip b.b_vip vip && visible t b then current t vip b.b_rip
    else rip_in_live t vip rest

let rec rip_in_map t vip = function
  | [] -> rip_in_live t vip t.live
  | (v, r) :: rest -> if Addr.equal_ip v vip then current t vip r else rip_in_map t vip rest

let rip_of_vip t vip = rip_in_map t vip t.map

(* Does the entry (v, r) resolve to [rip]?  Unless some vip was rebound
   [onto] [rip] since the install, only an entry installed at [rip] and not
   rebound away can, so the directory is consulted only on such a match. *)
let resolves t ~onto rip v r =
  if onto then Addr.equal_ip (current t v r) rip
  else Addr.equal_ip r rip && Addr.equal_ip (current t v r) r

let rec vip_in_live t ~onto rip = function
  | [] -> rip
  | b :: rest ->
    if visible t b && resolves t ~onto rip b.b_vip b.b_rip then b.b_vip
    else vip_in_live t ~onto rip rest

let rec vip_in_map t ~onto rip = function
  | [] -> vip_in_live t ~onto rip t.live
  | (v, r) :: rest -> if resolves t ~onto rip v r then v else vip_in_map t ~onto rip rest

let vip_of_rip t rip =
  let onto =
    t.installed <= t.dir.last_rebind
    && match Hashtbl.find_opt t.dir.targets rip with Some s -> s > t.installed | None -> false
  in
  vip_in_map t ~onto rip t.map

let translate_addr_out t (a : Addr.t) = { a with Addr.ip = rip_of_vip t a.ip }
let translate_addr_in t (a : Addr.t) = { a with Addr.ip = vip_of_rip t a.ip }

let to_value t =
  Value.assoc
    [ ("next_vpid", Value.Int t.next_vpid);
      ("vpids", Value.list Value.int (vpids t)) ]
