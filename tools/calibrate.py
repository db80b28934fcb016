"""Calibration harness: prints every paper anchor metric for the current specs.

Run after touching repro.sim.specs constants; the targets printed beside
each section are the paper's reported numbers (Figures 4, 13, 15, 16).
"""
import statistics
from repro.runtime.systems import (
    CPUGPUSystem,
    CPUOnlySystem,
    NMPSystem,
    OP_BWD_ACCU,
    OP_BWD_DNN,
    OP_BWD_EXPAND,
    OP_BWD_SCATTER,
    OP_BWD_SORT,
    OP_FWD_DNN,
    SystemHardware,
    compute_workload,
)
from repro.model import get_model

def main():
    hw = SystemHardware()
    cpu_only, cpu_gpu = CPUOnlySystem(hw), CPUGPUSystem(hw, casting=False)
    ours_cpu, base_nmp = CPUGPUSystem(hw, casting=True), NMPSystem(hw, casting=False)
    ours_nmp = NMPSystem(hw, casting=True)

    print("== Fig 4 anchors (b2048) ==  target: bwd-emb 62-92%, MLP<1% RM1/2 ~24% RM3/4, CPUonly gap big for RM3/4")
    for m in ("RM1","RM2","RM3","RM4"):
        st = compute_workload(get_model(m), 2048)
        ro, rg = cpu_only.run_iteration(st), cpu_gpu.run_iteration(st)
        bwd = rg.primitive_latency(OP_BWD_EXPAND,OP_BWD_SORT,OP_BWD_ACCU,OP_BWD_SCATTER)
        mlp = rg.primitive_latency(OP_FWD_DNN,OP_BWD_DNN)
        print(f"  {m}: gap={ro.total/rg.total:4.2f}x bwd-emb={bwd/rg.total*100:4.0f}% MLP={mlp/rg.total*100:5.1f}%")

    print("== Fig 13 (b1024-8192) == target: Ours(CPU) 1.2-1.6 def (to 2.8 big), B(NMP)<O(CPU) by ~15%, O(NMP) 2-15 avg 6.9")
    sp = {k: [] for k in ("B(NMP)","O(CPU)","O(NMP)")}
    fig12 = []
    for m in ("RM1","RM2","RM3","RM4"):
        vals = []
        for b in (1024,2048,4096,8192):
            st = compute_workload(get_model(m), b)
            base = cpu_gpu.run_iteration(st).total
            rb, rc, rn = base_nmp.run_iteration(st), ours_cpu.run_iteration(st), ours_nmp.run_iteration(st)
            sp["B(NMP)"].append(base/rb.total); sp["O(CPU)"].append(base/rc.total); sp["O(NMP)"].append(base/rn.total)
            ec = cpu_gpu.run_iteration(st).expand_coalesce_latency()
            fig12.append(ec/rc.casting_path_latency()); fig12.append(ec/rn.casting_path_latency())
            vals.append(f"b{b}:{base/rb.total:.2f}/{base/rc.total:.2f}/{base/rn.total:.2f}")
        print(f"  {m}: " + "  ".join(vals))
    for k,v in sp.items():
        print(f"  {k}: min={min(v):.2f} max={max(v):.2f} avg={statistics.mean(v):.2f}")
    print(f"  Fig12 right-axis (T.Cast benefit): min={min(fig12):.1f} max={max(fig12):.1f}  target 1.1-9.5")

    print("== Fig 16 (b8K-32K) == target: up to ~15x, robust")
    for m in ("RM1","RM4"):
        row = []
        for b in (8192,16384,32768):
            st = compute_workload(get_model(m), b)
            base = cpu_gpu.run_iteration(st).total
            row.append(f"b{b}: {base/ours_cpu.run_iteration(st).total:.2f}/{base/ours_nmp.run_iteration(st).total:.2f}")
        print(f"  {m}: " + "  ".join(row))

    print("== Fig 15 NMP utilization == target: TensorDIMM ~6.5-8.5%, T.Cast RM1/2 ~92% RM3/4 ~44%")
    for m in ("RM1","RM3"):
        st = compute_workload(get_model(m), 2048)
        rb, rn = base_nmp.run_iteration(st), ours_nmp.run_iteration(st)
        print(f"  {m}: TensorDIMM={rb.timeline.utilization('nmp')*100:4.1f}%  T.Cast={rn.timeline.utilization('nmp')*100:4.1f}%")

if __name__ == "__main__":
    main()
