package repro.bench

import repro.SparkSpec
import repro.tables.Table3

/** Regenerates paper Table 3: average precision/recall/f1 of matching
  * solutions developed on X2 and on X3, evaluated on train/test of both
  * D2 and D3 (full pipeline: vocabulary-restricted blocking → weighted
  * similarity in Spark → tuned threshold → transitive closure and confusion
  * matrix by the Appendix-D algorithm on the driver). The print test also
  * gives the run's wall time and the number of Spark jobs it started.
  *
  * Shape contract (the underlying solutions are synthetic stand-ins, see
  * DESIGN.md): own-dataset quality is high; the sparse-trained X3 family
  * transfers to D2 far better than the dense-trained X2 family transfers
  * to D3; the X2 family's D2 train/test gap is small.
  */
class Table3Bench extends SparkSpec {

  /** The run, its Spark job count and its wall time in seconds. */
  private lazy val (result, jobs, wallS) = {
    val start = System.nanoTime()
    val (r, started) = jobsOf(Table3.run(spark))
    (r, started, (System.nanoTime() - start) / 1e9)
  }

  private def f1(fam: String, ds: String) = result.cells((fam, ds)).f1

  test("print Table 3 (paper vs measured)") {
    println("=== Table 3: Average quality of matching solutions across datasets ===")
    println(BenchEnvironment.banner(Some(spark)))
    println(Table3.format(result))
    println(f"Table3.run: $wallS%.1f s wall, $jobs Spark jobs")
  }

  test("each family excels on its home training dataset") {
    assert(f1("X2", "X2") > 0.9, s"X2 family on X2: ${f1("X2", "X2")}")
    assert(f1("X3", "X3") > 0.75, s"X3 family on X3: ${f1("X3", "X3")}")
  }

  test("families generalize to their home test split") {
    assert(f1("X2", "Z2") > 0.80, s"X2 family on Z2: ${f1("X2", "Z2")}")
    assert(f1("X3", "Z3") > 0.70, s"X3 family on Z3: ${f1("X3", "Z3")}")
  }

  test("X3-trained solutions transfer to D2 better than X2-trained to D3 (key paper finding)") {
    val x3OnD2 = (f1("X3", "X2") + f1("X3", "Z2")) / 2
    val x2OnD3 = (f1("X2", "X3") + f1("X2", "Z3")) / 2
    assert(x3OnD2 > x2OnD3 + 0.15,
      s"transfer asymmetry missing: X3→D2 $x3OnD2 vs X2→D3 $x2OnD3 (paper: 80.5% vs 41.4%)")
  }

  test("transfer always costs quality (own > foreign)") {
    assert(f1("X2", "X2") > f1("X2", "X3"))
    assert(f1("X2", "Z2") > f1("X2", "Z3"))
    assert(f1("X3", "X3") > 0.9 * f1("X3", "X3"))
  }

  test("X2 family's D2 train/test gap is small next to its D3 transfer drop") {
    val d2Gap = math.abs(f1("X2", "X2") - f1("X2", "Z2"))
    assert(d2Gap < 0.12,
      s"D2 gap too large: ${f1("X2", "X2")} vs ${f1("X2", "Z2")} (paper: 99.8% vs 97.4%)")
    val d3Drop = f1("X2", "X2") - (f1("X2", "X3") + f1("X2", "Z3")) / 2
    assert(d2Gap < d3Drop / 2,
      s"same-domain gap $d2Gap should be far below the cross-domain drop $d3Drop")
  }

  test("X2 family does better on X3 than on Z3 (vocabulary-overlap asymmetry)") {
    assert(f1("X2", "X3") > f1("X2", "Z3"),
      s"expected X3 ${f1("X2", "X3")} > Z3 ${f1("X2", "Z3")} (paper prose: 47.0% vs 35.7%)")
  }

  test("tuned thresholds are meaningful similarity values") {
    result.thresholds.values.foreach(t => assert(t > 0.05 && t < 1.0))
  }
}
