type aff = {
  var_coefs : (string * int) list;
  param_coefs : (string * int) list;
  const : int;
}

let simplify a =
  let merge l =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (v, c) ->
        Hashtbl.replace tbl v (c + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
      l;
    (* keep first-occurrence order for stable printing *)
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (v, _) ->
        if Hashtbl.mem seen v then None
        else begin
          Hashtbl.add seen v ();
          let c = Hashtbl.find tbl v in
          if c = 0 then None else Some (v, c)
        end)
      l
  in
  { a with var_coefs = merge a.var_coefs; param_coefs = merge a.param_coefs }

let aff_const n = { var_coefs = []; param_coefs = []; const = n }
let aff_var v = { var_coefs = [ (v, 1) ]; param_coefs = []; const = 0 }
let aff_param p = { var_coefs = []; param_coefs = [ (p, 1) ]; const = 0 }

let aff_add a b =
  simplify
    {
      var_coefs = a.var_coefs @ b.var_coefs;
      param_coefs = a.param_coefs @ b.param_coefs;
      const = a.const + b.const;
    }

let aff_scale k a =
  simplify
    {
      var_coefs = List.map (fun (v, c) -> (v, k * c)) a.var_coefs;
      param_coefs = List.map (fun (v, c) -> (v, k * c)) a.param_coefs;
      const = k * a.const;
    }

let aff_sub a b = aff_add a (aff_scale (-1) b)

let aff_equal a b =
  let d = simplify (aff_sub a b) in
  d.var_coefs = [] && d.param_coefs = [] && d.const = 0

type access_kind = Read | Write
type access = { array : string; indices : aff list; kind : access_kind }
type binop = Add | Sub | Mul | Div | Max | Min

type expr =
  | Load of access
  | Const of float
  | Bin of binop * expr * expr
  | Neg of expr
  | Sqrt of expr
  | Exp of expr

type stmt = { stmt_name : string; target : access; rhs : expr }
type cond = { cond_aff : aff; cond_eq : bool }
type item = Loop of loop | Stmt of stmt | If of branch

and loop = {
  var : string;
  lo : aff list;
  hi : aff list;
  step : int;
  parallel : bool;
  body : item list;
}

and branch = { conds : cond list; then_ : item list; else_ : item list }

type array_decl = { array_name : string; extents : aff list; elem_size : int }

type t = {
  prog_name : string;
  params : string list;
  arrays : array_decl list;
  body : item list;
}

let loop_minmax ?(step = 1) ?(parallel = false) var ~lo ~hi body =
  assert (step > 0 && lo <> [] && hi <> []);
  Loop { var; lo; hi; step; parallel; body }

let loop ?step ?parallel var ~lo ~hi body =
  loop_minmax ?step ?parallel var ~lo:[ lo ] ~hi:[ hi ] body

let if_ ?(else_ = []) conds then_ =
  assert (conds <> []);
  If { conds; then_; else_ }

let cond_ge a = { cond_aff = a; cond_eq = false }
let cond_eq a = { cond_aff = a; cond_eq = true }

let read array indices = Load { array; indices; kind = Read }
let write array indices = { array; indices; kind = Write }

let assign name ~target rhs =
  assert (target.kind = Write);
  Stmt { stmt_name = name; target; rhs }

let rec flops_of_expr = function
  | Load _ | Const _ -> 0
  | Bin (_, a, b) -> 1 + flops_of_expr a + flops_of_expr b
  | Neg e | Sqrt e | Exp e -> 1 + flops_of_expr e

let rec loads_of_expr = function
  | Load a -> [ a ]
  | Const _ -> []
  | Bin (_, a, b) -> loads_of_expr a @ loads_of_expr b
  | Neg e | Sqrt e | Exp e -> loads_of_expr e

let accesses_of_stmt s = loads_of_expr s.rhs @ [ s.target ]

let find_array t name =
  List.find (fun a -> a.array_name = name) t.arrays

let rec stmts_of_items items =
  List.concat_map
    (function
      | Stmt s -> [ s ]
      | Loop l -> stmts_of_items l.body
      | If b -> stmts_of_items b.then_ @ stmts_of_items b.else_)
    items

let stmts t = stmts_of_items t.body

let loop_depth t =
  let rec depth items =
    List.fold_left
      (fun acc -> function
        | Stmt _ -> acc
        | Loop l -> max acc (1 + depth l.body)
        | If b -> max acc (max (depth b.then_) (depth b.else_)))
      0 items
  in
  depth t.body

let validate t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_aff vars a =
    let bad =
      List.find_opt (fun (v, _) -> not (List.mem v vars)) a.var_coefs
    in
    let badp =
      List.find_opt (fun (p, _) -> not (List.mem p t.params)) a.param_coefs
    in
    match (bad, badp) with
    | Some (v, _), _ -> err "loop variable '%s' not in scope" v
    | _, Some (p, _) -> err "unknown parameter '%s'" p
    | None, None -> Ok ()
  in
  let check_access vars (a : access) =
    match List.find_opt (fun d -> d.array_name = a.array) t.arrays with
    | None -> err "array '%s' not declared" a.array
    | Some d ->
      if List.length a.indices <> List.length d.extents then
        err "array '%s': rank mismatch (%d indices, %d dims)" a.array
          (List.length a.indices) (List.length d.extents)
      else
        List.fold_left
          (fun acc idx -> let* () = acc in check_aff vars idx)
          (Ok ()) a.indices
  in
  let rec check_items vars seen_names = function
    | [] -> Ok seen_names
    | Stmt s :: rest ->
      if List.mem s.stmt_name seen_names then
        err "duplicate statement name '%s'" s.stmt_name
      else
        let* () =
          List.fold_left
            (fun acc a -> let* () = acc in check_access vars a)
            (Ok ()) (accesses_of_stmt s)
        in
        check_items vars (s.stmt_name :: seen_names) rest
    | If b :: rest ->
      if b.conds = [] then err "empty branch condition"
      else
        let* () =
          List.fold_left
            (fun acc c -> let* () = acc in check_aff vars c.cond_aff)
            (Ok ()) b.conds
        in
        let* seen = check_items vars seen_names b.then_ in
        let* seen = check_items vars seen b.else_ in
        check_items vars seen rest
    | Loop l :: rest ->
      if List.mem l.var vars then err "shadowed loop variable '%s'" l.var
      else if l.step <= 0 then err "loop '%s': non-positive step" l.var
      else if l.lo = [] || l.hi = [] then err "loop '%s': empty bound list" l.var
      else if l.step > 1 && List.length l.lo > 1 then
        err "loop '%s': strided loop needs a single lower bound" l.var
      else
        let check_affs affs =
          List.fold_left
            (fun acc a -> let* () = acc in check_aff vars a)
            (Ok ()) affs
        in
        let* () = check_affs l.lo in
        let* () = check_affs l.hi in
        let* seen = check_items (l.var :: vars) seen_names l.body in
        check_items vars seen rest
  in
  let* _ = check_items [] [] t.body in
  Ok ()

let rec map_item f = function
  | Stmt s -> f (Stmt s)
  | Loop l -> f (Loop { l with body = List.map (map_item f) l.body })
  | If b ->
    f
      (If
         {
           b with
           then_ = List.map (map_item f) b.then_;
           else_ = List.map (map_item f) b.else_;
         })

let map_items f t = { t with body = List.map (map_item f) t.body }

(* ---------- printing ---------- *)

let pp_aff ppf a =
  let a = simplify a in
  let terms =
    List.map (fun (v, c) -> (c, v)) a.var_coefs
    @ List.map (fun (p, c) -> (c, p)) a.param_coefs
  in
  let printed = ref false in
  List.iter
    (fun (c, v) ->
      if !printed then
        Format.fprintf ppf (if c >= 0 then " + " else " - ")
      else if c < 0 then Format.fprintf ppf "-";
      let ac = abs c in
      if ac = 1 then Format.fprintf ppf "%s" v
      else Format.fprintf ppf "%d*%s" ac v;
      printed := true)
    terms;
  if a.const <> 0 || not !printed then
    if !printed then
      Format.fprintf ppf
        (if a.const >= 0 then " + %d" else " - %d")
        (abs a.const)
    else Format.fprintf ppf "%d" a.const

let pp_access ppf (a : access) =
  Format.fprintf ppf "%s%a" a.array
    (fun ppf -> List.iter (fun i -> Format.fprintf ppf "[%a]" pp_aff i))
    a.indices

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Max -> "max" | Min -> "min"

let rec pp_expr ppf = function
  | Load a -> pp_access ppf a
  | Const f ->
    if Float.is_integer f && Float.abs f < 1e9 then
      Format.fprintf ppf "%.1f" f
    else Format.fprintf ppf "%g" f
  | Bin (((Max | Min) as op), a, b) ->
    Format.fprintf ppf "%s(%a, %a)" (binop_str op) pp_expr a pp_expr b
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_str op) pp_expr b
  | Neg e -> Format.fprintf ppf "(-%a)" pp_expr e
  | Sqrt e -> Format.fprintf ppf "sqrt(%a)" pp_expr e
  | Exp e -> Format.fprintf ppf "exp(%a)" pp_expr e

let pp_cond ppf c =
  Format.fprintf ppf "%a %s 0" pp_aff c.cond_aff (if c.cond_eq then "==" else ">=")

let rec pp_item ppf = function
  | If b ->
    Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " && ") pp_cond)
      b.conds
      (Format.pp_print_list pp_item)
      b.then_;
    if b.else_ <> [] then
      Format.fprintf ppf "@[<v 2> else {@,%a@]@,}"
        (Format.pp_print_list pp_item)
        b.else_
  | Stmt s ->
    Format.fprintf ppf "@[<h>%a = %a;  // %s@]" pp_access s.target pp_expr
      s.rhs s.stmt_name
  | Loop l ->
    let pp_bound kw ppf = function
      | [ a ] -> pp_aff ppf a
      | affs ->
        Format.fprintf ppf "%s(%a)" kw
          (Format.pp_print_list
             ~pp_sep:(fun f () -> Format.fprintf f ", ")
             pp_aff)
          affs
    in
    Format.fprintf ppf "@[<v 2>%sfor (%s = %a; %s < %a; %s += %d) {@,%a@]@,}"
      (if l.parallel then "parallel " else "")
      l.var (pp_bound "max") l.lo l.var (pp_bound "min") l.hi l.var l.step
      (Format.pp_print_list pp_item)
      l.body

let pp ppf t =
  Format.fprintf ppf "@[<v>program %s" t.prog_name;
  if t.params <> [] then
    Format.fprintf ppf " [%s]" (String.concat ", " t.params);
  Format.fprintf ppf "@,";
  List.iter
    (fun d ->
      Format.fprintf ppf "array %s%a : %d bytes@," d.array_name
        (fun ppf ->
          List.iter (fun e -> Format.fprintf ppf "[%a]" pp_aff e))
        d.extents d.elem_size)
    t.arrays;
  Format.pp_print_list pp_item ppf t.body;
  Format.fprintf ppf "@]"

(* ---------- fingerprint ---------- *)

(* Prefix rendering: every name is length-prefixed and every list
   count-prefixed, so distinct programs never render alike. *)
let fingerprint t =
  let b = Buffer.create 1024 in
  let tag c = Buffer.add_char b c in
  let int i = Buffer.add_string b (string_of_int i); tag ',' in
  let name s = int (String.length s); Buffer.add_string b s in
  let list f l = int (List.length l); List.iter f l in
  let coef (v, c) = name v; int c in
  let aff a = list coef a.var_coefs; list coef a.param_coefs; int a.const in
  let access a =
    name a.array;
    list aff a.indices;
    tag (match a.kind with Read -> 'r' | Write -> 'w')
  in
  let rec expr = function
    | Load a -> tag 'L'; access a
    | Const f -> Printf.bprintf b "C%h," f
    | Bin (op, x, y) ->
      tag
        (match op with
        | Add -> '+' | Sub -> '-' | Mul -> '*' | Div -> '/'
        | Max -> 'M' | Min -> 'm');
      expr x;
      expr y
    | Neg e -> tag 'N'; expr e
    | Sqrt e -> tag 'Q'; expr e
    | Exp e -> tag 'E'; expr e
  in
  let cond c = aff c.cond_aff; tag (if c.cond_eq then '=' else '>') in
  let rec item = function
    | Loop l ->
      tag 'F';
      name l.var;
      list aff l.lo;
      list aff l.hi;
      int l.step;
      tag (if l.parallel then 'p' else 's');
      list item l.body
    | Stmt s -> tag 'S'; name s.stmt_name; access s.target; expr s.rhs
    | If br -> tag 'I'; list cond br.conds; list item br.then_; list item br.else_
  in
  let array d = name d.array_name; list aff d.extents; int d.elem_size in
  name t.prog_name;
  list name t.params;
  list array t.arrays;
  list item t.body;
  Buffer.contents b
