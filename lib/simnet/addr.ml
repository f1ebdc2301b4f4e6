module Value = Zapc_codec.Value

type ip = int
type t = { ip : ip; port : int }

let v ip port = { ip; port }
let any = 0
let octet_ok o = o >= 0 && o <= 255

let make_ip a b c d =
  if not (octet_ok a && octet_ok b && octet_ok c && octet_ok d) then
    invalid_arg (Printf.sprintf "Addr.make_ip: octet out of range in %d.%d.%d.%d" a b c d);
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    (try make_ip (int_of_string a) (int_of_string b) (int_of_string c) (int_of_string d)
     with Failure _ | Invalid_argument _ -> invalid_arg ("Addr.ip_of_string: " ^ s))
  | _ -> invalid_arg ("Addr.ip_of_string: " ^ s)

let ip_to_string ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)

let compare a b =
  match Int.compare a.ip b.ip with 0 -> Int.compare a.port b.port | c -> c

let equal a b = compare a b = 0
let equal_ip (a : ip) b = Int.equal a b
let pp_ip ppf ip = Format.pp_print_string ppf (ip_to_string ip)
let pp ppf t = Format.fprintf ppf "%a:%d" pp_ip t.ip t.port
let to_value t = Value.List [ Value.Int t.ip; Value.Int t.port ]

let of_value v =
  match v with
  | Value.List [ Value.Int ip; Value.Int port ] -> { ip; port }
  | _ -> Value.decode_error "Addr.of_value"
