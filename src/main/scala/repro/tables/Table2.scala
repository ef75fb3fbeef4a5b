package repro.tables

import org.apache.spark.sql.SparkSession

import repro.core.Profiling
import repro.emdata.{DatasetSpecs, EmGen}

/** Table 2: profiling the SIGMOD-contest notebook datasets — sparsity (SP),
  * textuality (TX), tuple count (TC), positive ratio (PR), vocabulary
  * similarity (VS).
  *
  * Datasets are regenerated by [[EmGen]] from [[DatasetSpecs]], whose
  * parameters target exactly the paper's profile; all five metrics are then
  * *measured* on the generated data with [[Profiling]]'s Spark
  * implementations — the same code a Frost user would run on real data.
  *
  * PR convention: the paper's positive ratio is relative to the contest's
  * labeled pair sets (2.2% of C(58k,2) would be ~38M duplicate pairs —
  * impossible), so we compute PR over each dataset's labeled pair sample.
  */
object Table2 {

  final case class Row(dataset: String, sp: Double, tx: Double, tc: Long, pr: Double)

  final case class Result(rows: Seq[Row], vsD2: Double, vsD3: Double)

  /** Paper's targets, for side-by-side reporting. */
  val paperRows: Seq[Row] = Seq(
    Row("X2", 0.1110, 27.99, 58653, 0.022),
    Row("Z2", 0.1972, 23.69, 18915, 0.036),
    Row("X3", 0.5010, 15.53, 56616, 0.022),
    Row("Z3", 0.4260, 15.35, 35778, 0.121),
  )
  val paperVsD2 = 0.590
  val paperVsD3 = 0.377

  def run(spark: SparkSession): Result = {
    val specs = IndexedSeq(DatasetSpecs.x2, DatasetSpecs.z2, DatasetSpecs.x3, DatasetSpecs.z3)
    val datasets = EmGen.generateAll(spark, specs)

    val attrNames = specs.head.attrs.map(_.name)
    val rows = datasets.map(profileRow(_, attrNames))
    val vsD2 = Profiling.vocabularySimilarity(datasets(0).records, attrNames, datasets(1).records, attrNames)
    val vsD3 = Profiling.vocabularySimilarity(datasets(2).records, attrNames, datasets(3).records, attrNames)
    Result(rows, vsD2, vsD3)
  }

  /** A dataset's row from two Spark jobs: the records pass of
    * [[Profiling]] for SP, TX and TC, and one count per label value
    * (`countByValue`) for PR, the labeled pairs with `label` true over all
    * labeled pairs.
    */
  private[tables] def profileRow(d: EmGen.EmDataset, attrs: Seq[String]): Row = {
    val r = Profiling.recordStats(d.records, attrs)
    val byLabel = d.labeledPairs.select("label").rdd.map(_.get(0)).countByValue()
    val total = byLabel.values.sum
    val pr = if (total == 0) 0.0 else byLabel.getOrElse(true, 0L).toDouble / total
    Row(d.spec.name, r.sparsity, r.textuality, r.rows, pr)
  }

  def format(r: Result): String = {
    val header = f"${"Dataset"}%-8s ${"SP"}%8s ${"TX"}%8s ${"TC"}%10s ${"PR"}%8s    (paper: SP, TX, TC, PR)"
    val rows = r.rows.zip(paperRows).map { case (m, p) =>
      f"${m.dataset}%-8s ${m.sp * 100}%7.2f%% ${m.tx}%8.2f ${m.tc}%10d ${m.pr * 100}%7.2f%%    (${p.sp * 100}%.2f%%, ${p.tx}%.2f, ${p.tc}%d, ${p.pr * 100}%.1f%%)"
    }
    val vs = Seq(
      f"VS(X2,Z2) = ${r.vsD2 * 100}%.1f%%  (paper: ${paperVsD2 * 100}%.1f%%)",
      f"VS(X3,Z3) = ${r.vsD3 * 100}%.1f%%  (paper: ${paperVsD3 * 100}%.1f%%)",
    )
    (header +: rows) .mkString("\n") + "\n" + vs.mkString("\n")
  }
}
